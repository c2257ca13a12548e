package market

import (
	"testing"

	"github.com/soteria-analysis/soteria/internal/groovy"
)

// parseCorpus runs every market app through groovy.Parse: the front
// end's share of one audit-corpus pass.
func parseCorpus(tb testing.TB, apps []AppSpec) {
	for _, a := range apps {
		if _, err := groovy.Parse(a.Name, a.Source); err != nil {
			tb.Fatalf("%s: %v", a.ID, err)
		}
	}
}

// BenchmarkParseCorpus measures lexing and parsing the 65 market apps.
func BenchmarkParseCorpus(b *testing.B) {
	apps := All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parseCorpus(b, apps)
	}
}
