package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// SourceHash fingerprints one named source (length-prefixed, so
// name/source boundaries cannot collide).
func SourceHash(s NamedSource) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s\x00%d:%s\x00", len(s.Name), s.Name, len(s.Source), s.Source)
	return hex.EncodeToString(h.Sum(nil))
}

// AnalysisKey fingerprints an item's sources plus every option that
// affects verdicts — the content address of an analysis result.
func AnalysisKey(sources []NamedSource, o Options) string {
	h := sha256.New()
	for _, s := range sources {
		fmt.Fprintf(h, "%s\x00", SourceHash(s))
	}
	fmt.Fprintf(h, "g=%t|a=%t|t=%t|ids=%q|lim=%+v", o.General, o.AppSpecific, o.Taint, o.PropertyIDs, o.Limits)
	return hex.EncodeToString(h.Sum(nil))
}
