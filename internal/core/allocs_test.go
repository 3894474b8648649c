package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
)

// TestAllocAttribution compiles the example chips solo and checks that
// the per-pass deltas account for at least 90% of the whole-compile
// allocation delta. Run with no parallel siblings (the counters are
// process-wide).
//
// Each chip is compiled attributionCompiles times and the deltas are
// summed before the bars are applied. The runtime/metrics object counter
// credits a size class's allocations when its cached span is swapped out,
// not per object, so one compile's delta can miss a whole span's worth of
// objects per size class: shifter8, which makes ~5.6k allocations by
// runtime.MemStats, read 2.1k–4.3k objects compile to compile, and single
// compiles attributed 88.5%–100% of them, under the bar now and then.
// That error is bounded per
// compile, so summed over repeats the ratio settles on the true share.
func TestAllocAttribution(t *testing.T) {
	const attributionCompiles = 50
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "chips", "*.bb"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example chips found: %v", err)
	}
	for _, path := range specs {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := desc.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			var att, total, corePass core.AllocDelta
			for i := 0; i < attributionCompiles; i++ {
				chip, err := core.Compile(spec, &core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				a := chip.Allocs
				// The passes are disjoint sub-intervals of the compile, so
				// their deltas can never sum past the whole, lag or not.
				if got := a.Attributed(); got.Objects > a.Total.Objects || got.Bytes > a.Total.Bytes {
					t.Fatalf("attributed %+v exceeds total %+v", got, a.Total)
				}
				att.Add(a.Attributed())
				total.Add(a.Total)
				corePass.Add(a.Core)
			}
			if total.Objects == 0 || total.Bytes == 0 {
				t.Fatalf("no total alloc delta recorded: %+v", total)
			}
			if corePass.Objects == 0 {
				t.Error("core pass recorded zero allocations")
			}
			// ≥ 90% of the compiles' allocations must land in a named pass.
			if float64(att.Objects) < 0.9*float64(total.Objects) {
				t.Errorf("object attribution %.1f%% < 90%% (attributed %d of %d)",
					100*float64(att.Objects)/float64(total.Objects), att.Objects, total.Objects)
			}
			if float64(att.Bytes) < 0.9*float64(total.Bytes) {
				t.Errorf("byte attribution %.1f%% < 90%% (attributed %d of %d)",
					100*float64(att.Bytes)/float64(total.Bytes), att.Bytes, total.Bytes)
			}
			t.Logf("attributed %.1f%% of objects, %.1f%% of bytes over %d compiles",
				100*float64(att.Objects)/float64(total.Objects),
				100*float64(att.Bytes)/float64(total.Bytes), attributionCompiles)
		})
	}
}

// TestAllocsExcludedFromStats pins the determinism contract: Stats must
// not grow allocation fields (it is byte-compared across differential
// legs), so the measurement lives on Chip.Allocs alongside Times.
func TestAllocsExcludedFromStats(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "chips", "adder4.bb"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := desc.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Compile(spec, &core.Options{SkipPads: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Compile(spec, &core.Options{SkipPads: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("Stats differ across identical compiles:\n%+v\n%+v", a.Stats, b.Stats)
	}
}
