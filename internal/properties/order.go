package properties

import (
	"sort"
	"strings"
)

// IDRank maps a property ID to its catalogue position for report
// ordering: S.1–S.5 first, then P.1–P.30, then the taint family
// T.1–T.6, then the nondeterminism marker ND, with unknown IDs last
// (ordered lexically among themselves). Reports sorted by IDRank are
// stable across runs regardless of the order verdicts arrive in.
func IDRank(id string) int {
	switch {
	case strings.HasPrefix(id, "S."):
		return idNum(id)
	case strings.HasPrefix(id, "P."):
		return 100 + idNum(id)
	case strings.HasPrefix(id, "T."):
		return 500 + idNum(id)
	case id == "ND":
		return 1000
	}
	return 2000
}

func idNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// SortViolations sorts violations into catalogue order (see IDRank),
// breaking ties on the detail text so equal inputs always render
// byte-identical reports, independent of discovery order.
func SortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		ri, rj := IDRank(vs[i].ID), IDRank(vs[j].ID)
		if ri != rj {
			return ri < rj
		}
		if vs[i].ID != vs[j].ID {
			return vs[i].ID < vs[j].ID
		}
		return vs[i].Detail < vs[j].Detail
	})
}
