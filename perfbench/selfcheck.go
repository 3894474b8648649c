package main

import (
	"fmt"
	"os"
	"time"
)

// runSelfcheck runs every workload briefly twice, at Parallelism 1 and at
// the default (0 = GOMAXPROCS), with invariant.Check run afresh, and fails
// unless each distinct input compiles to the same CIF with the same
// counts both times. Pass 3 promises byte-identity at every pool size;
// the count metrics rest on that promise.
func runSelfcheck() int {
	code := 0
	for _, name := range workloadOrder {
		var runs [2][]ref
		for k, p := range []int{1, 0} {
			p := p
			res, refs, err := runWorkload(name, config{seed: 1, parallelism: &p}, 2*time.Second, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selfcheck %s at Parallelism %d: %v\n", name, p, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "selfcheck %s at Parallelism %d: outputs failed their checks\n", name, p)
				code = 1
			}
			runs[k] = refs
		}
		diffs := 0
		for i := range runs[0] {
			a, b := runs[0][i], runs[1][i]
			if a.digest != b.digest || a.err != b.err || (a.stats == nil) != (b.stats == nil) ||
				(a.stats != nil && countsOf(a) != countsOf(b)) {
				diffs++
				fmt.Fprintf(os.Stderr, "selfcheck %s: input %d differs between Parallelism 1 and the default\n", name, i)
			}
		}
		qa, qb := quality(runs[0]), quality(runs[1])
		if qa != qb {
			diffs++
			fmt.Fprintf(os.Stderr, "selfcheck %s: quality sums differ: %+v vs %+v\n", name, qa, qb)
		}
		fmt.Printf("selfcheck %s: %d distinct inputs, area %.0f lambda2, wire %.0f lambda, pla %.0f terms, %d differences\n",
			name, len(runs[0]), qa.area, qa.wire, qa.pla, diffs)
		if diffs > 0 {
			code = 1
		}
	}
	return code
}

// counts are the per-compile counters the count metrics sum.
type counts struct {
	cells, before, after       int
	expanded, nets, confl, ret int64
}

func countsOf(r ref) counts {
	s := r.stats
	return counts{s.CellsGenerated, s.PlaTermsBefore, s.PlaTermsAfter,
		s.RouteCellsExpanded, s.RouteNets, s.RouteConflicts, s.RouteRetries}
}
