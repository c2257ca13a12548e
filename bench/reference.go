package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
)

// verdictsJSON is the frozen verdict reference. "paper" holds the
// answers the paper's tables give (market.Table3Expected, Table 4's
// groups, empty for every other app and clean bundle); "violated" is
// the full violated-ID set the analyzer returned when the file was
// frozen, a superset of "paper". Runs compare against "violated".
//
//go:embed testdata/verdicts.json
var verdictsJSON []byte

// verdictEntry is one app or environment of the reference.
type verdictEntry struct {
	ID       string   `json:"id"`
	Members  []string `json:"members,omitempty"`
	Paper    []string `json:"paper"`
	Violated []string `json:"violated"`
}

// reference is the parsed verdict file.
type reference struct {
	Apps         []verdictEntry `json:"apps"`
	Environments []verdictEntry `json:"environments"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(verdictsJSON, &ref); err != nil {
		return nil, fmt.Errorf("testdata/verdicts.json: %w", err)
	}
	return &ref, nil
}

// item is one unit of analysis: a corpus app or a multi-app
// environment, with the violated IDs it must yield.
type item struct {
	id      string
	sources []core.NamedSource
	want    []string
}

// corpusItems are the 65 market apps in corpus order.
func (r *reference) corpusItems() ([]item, error) {
	want := map[string][]string{}
	for _, e := range r.Apps {
		want[e.ID] = e.Violated
	}
	var items []item
	for _, a := range market.All() {
		w, ok := want[a.ID]
		if !ok {
			return nil, fmt.Errorf("testdata/verdicts.json has no entry for app %s", a.ID)
		}
		items = append(items, item{id: a.ID, sources: []core.NamedSource{{Name: a.Name, Source: a.Source}}, want: w})
	}
	return items, nil
}

// envItems are the 28 candidate environments (G.1–G.3 and the clean
// C.* bundles) in the reference's order.
func (r *reference) envItems() ([]item, error) {
	apps := map[string]market.AppSpec{}
	for _, a := range market.All() {
		apps[a.ID] = a
	}
	var items []item
	for _, e := range r.Environments {
		it := item{id: e.ID, want: e.Violated}
		for _, m := range e.Members {
			a, ok := apps[m]
			if !ok {
				return nil, fmt.Errorf("testdata/verdicts.json: %s names unknown app %s", e.ID, m)
			}
			it.sources = append(it.sources, core.NamedSource{Name: a.Name, Source: a.Source})
		}
		items = append(items, it)
	}
	return items, nil
}

// variant returns the item's sources with a comment line carrying
// nonce appended to each, so every analysis of a run sees content no
// other analysis has seen and no cache keyed on content can answer it.
// The verdict is unchanged.
func (it item) variant(nonce string) []core.NamedSource {
	out := make([]core.NamedSource, len(it.sources))
	for i, s := range it.sources {
		out[i] = core.NamedSource{Name: s.Name, Source: s.Source + "\n// bench " + nonce + "\n"}
	}
	return out
}

// sameIDs reports whether two violated-ID lists name the same set.
func sameIDs(got, want []string) bool {
	return idKey(got) == idKey(want)
}

func idKey(ids []string) string {
	s := append([]string{}, ids...)
	sort.Strings(s)
	out := s[:0]
	for i, id := range s {
		if i == 0 || id != s[i-1] {
			out = append(out, id)
		}
	}
	return strings.Join(out, ",")
}
