package core

import "testing"

func TestSourceHashBoundaries(t *testing.T) {
	// Length prefixing: moving a byte across the name/source boundary
	// must change the hash.
	a := SourceHash(NamedSource{Name: "ab", Source: "c"})
	b := SourceHash(NamedSource{Name: "a", Source: "bc"})
	if a == b {
		t.Fatal("name/source boundary does not affect SourceHash")
	}
	if a != SourceHash(NamedSource{Name: "ab", Source: "c"}) {
		t.Fatal("SourceHash is not deterministic")
	}
}

func TestAnalysisKeyOptionSensitivity(t *testing.T) {
	srcs := []NamedSource{{Name: "x", Source: "y"}}
	base := DefaultOptions()
	key := AnalysisKey(srcs, base)

	general := base
	general.AppSpecific = false
	if AnalysisKey(srcs, general) == key {
		t.Fatal("property-family selection does not affect AnalysisKey")
	}
	noTaint := base
	noTaint.Taint = false
	if AnalysisKey(srcs, noTaint) == key {
		t.Fatal("taint selection does not affect AnalysisKey")
	}
	filtered := base
	filtered.PropertyIDs = []string{"P.1"}
	if AnalysisKey(srcs, filtered) == key {
		t.Fatal("property filter does not affect AnalysisKey")
	}
	limited := base
	limited.Limits.MaxStates = 7
	if AnalysisKey(srcs, limited) == key {
		t.Fatal("resource limits do not affect AnalysisKey")
	}
}
