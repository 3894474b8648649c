package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"time"

	"bristleblocks/internal/cif"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/experiments"
)

// t2Widths × t2Counts is the T2 curve: experiments.SpecFor chips from the
// smallest to the widest data path, with growing register banks. Every
// point compiles in 1.5–20 ms on a 2-core host, so no escalating Pass 3
// shape sets the tail.
var (
	t2Widths = []int{4, 8, 16, 32, 64}
	t2Counts = []int{1, 2, 4, 8, 16}
)

// wideShapes are adder4 widened to a data width at a register count
// whose pad ladder escalates: 40–450 ms each, ~94% of it in Pass 3.
var wideShapes = [][2]int{{32, 4}, {16, 16}, {64, 2}, {32, 16}, {64, 8}}

func setupT2Curve(cfg config) (workload, error) {
	var labels, texts []string
	for _, w := range t2Widths {
		for _, n := range t2Counts {
			name := fmt.Sprintf("t2_w%d_n%d", w, n)
			labels = append(labels, name)
			texts = append(texts, desc.Format(experiments.SpecFor(experiments.SuiteChip{Name: name, Width: w, Elems: n})))
		}
	}
	return newCompileWorkload(cfg, labels, texts)
}

func setupWidePads(cfg config) (workload, error) {
	src, err := os.ReadFile("examples/chips/adder4.bb")
	if err != nil {
		return nil, err
	}
	var labels, texts []string
	for _, s := range wideShapes {
		name := fmt.Sprintf("wide_w%d_n%d", s[0], s[1])
		t := strings.Replace(string(src), "chip adder4", "chip "+name, 1)
		t = strings.Replace(t, "data width 4", fmt.Sprintf("data width %d", s[0]), 1)
		t = strings.Replace(t, "count=2", fmt.Sprintf("count=%d", s[1]), 1)
		labels = append(labels, name)
		texts = append(texts, t)
	}
	return newCompileWorkload(cfg, labels, texts)
}

// compileWorkload is one closed-loop client compiling in process: every
// round compiles each distinct spec once, in seeded order.
type compileWorkload struct {
	cfg    config
	opts   core.Options
	labels []string
	texts  []string
	// warm holds each spec's CIF from the warm-up pass; a timed op whose
	// CIF equals it takes its digest without hashing again.
	warm       [][]byte
	warmDigest [][32]byte
	buf        bytes.Buffer
	allocs     core.CompileAllocs // summed over the timed ops
}

func newCompileWorkload(cfg config, labels, texts []string) (*compileWorkload, error) {
	w := &compileWorkload{cfg: cfg, labels: labels, texts: texts}
	if cfg.parallelism != nil {
		w.opts.Parallelism = *cfg.parallelism
	}
	for i, t := range texts {
		if _, err := desc.Parse(t); err != nil {
			return nil, fmt.Errorf("%s: %w", labels[i], err)
		}
	}
	// The warm-up pass: one untimed round.
	warm := make([][]byte, len(texts))
	digests := make([][32]byte, len(texts))
	for i := range texts {
		if rec := w.op(i, nil); rec.err == "" {
			warm[i], digests[i] = append([]byte(nil), w.buf.Bytes()...), rec.digest
		}
	}
	w.warm, w.warmDigest, w.allocs = warm, digests, core.CompileAllocs{}
	return w, nil
}

func (w *compileWorkload) timed(deadline time.Time, tr *tracer) ([]opRec, []roundRec) {
	round := make([]int, len(w.texts))
	for i := range round {
		round[i] = i
	}
	return closedLoop(w.cfg.seed, deadline, tr, round, w.op)
}

// op parses, compiles and writes one spec's CIF; tr, when set, receives
// a span per public call and per pass.
func (w *compileWorkload) op(i int, tr *tracer) opRec {
	t0 := time.Now()
	spec, err := desc.Parse(w.texts[i])
	t1 := time.Now()
	var chip *core.Chip
	if err == nil {
		chip, err = core.CompileCtx(context.Background(), spec, &w.opts)
	}
	t2 := time.Now()
	w.buf.Reset()
	if err == nil {
		err = cif.Write(&w.buf, chip.Mask, lambdaOf(chip))
	}
	t3 := time.Now()
	rec := opRec{input: i, ms: ms(t3.Sub(t0))}
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	if w.warm != nil && bytes.Equal(w.buf.Bytes(), w.warm[i]) {
		rec.digest = w.warmDigest[i]
	} else {
		rec.digest = sha256.Sum256(w.buf.Bytes())
	}
	w.allocs.Core.Add(chip.Allocs.Core)
	w.allocs.Control.Add(chip.Allocs.Control)
	w.allocs.Pads.Add(chip.Allocs.Pads)
	w.allocs.Reps.Add(chip.Allocs.Reps)
	if tr != nil {
		op := tr.op()
		root := tr.add(op, 0, "compile", "op", t0, t3.Sub(t0))
		tr.add(op, root, "compile", "desc.Parse", t0, t1.Sub(t0))
		cc := tr.add(op, root, "compile", "core.CompileCtx", t1, t2.Sub(t1))
		passSpans(tr, op, cc, "compile", t1, chip.Times)
		tr.add(op, root, "compile", "cif.Write", t2, t3.Sub(t2))
	}
	return rec
}

// passSpans hangs one child span per compiler pass under parent, laid end
// to end from start, from the pass times the compile reported.
func passSpans(tr *tracer, op, parent int, class string, start time.Time, t core.PassTimes) {
	reps := t.Total - t.Core - t.Control - t.Pads
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"pass.core", t.Core}, {"pass.control", t.Control}, {"pass.pads", t.Pads}, {"pass.reps", reps}} {
		tr.add(op, parent, class, p.name, start, p.d)
		start = start.Add(p.d)
	}
}

func (w *compileWorkload) check(memo *checkMemo) ([]ref, []string) {
	opts := core.Options{Parallelism: w.opts.Parallelism}
	return checkAll(len(w.texts), func(i int) (ref, []string) {
		r, _, _, vs := reference(w.texts[i], opts, memo)
		return r, vs
	})
}

func (w *compileWorkload) classes() []string      { return []string{"compile"} }
func (w *compileWorkload) label(input int) string { return w.labels[input] }

func (w *compileWorkload) layers(m map[string]metric, ops []opRec, tr *tracer) {
	self := tr.selfTimes()
	traced := float64(max(tr.ops, 1))
	per := func(name string) float64 { return self[name] / traced }
	m["desc.parse_ms"] = metric{per("desc.Parse"), "ms"}
	m["core.pass_ms"] = metric{per("pass.core"), "ms"}
	m["decoder.pass_ms"] = metric{per("pass.control"), "ms"}
	m["pads.pass_ms"] = metric{per("pass.pads"), "ms"}
	m["reps.pass_ms"] = metric{per("pass.reps"), "ms"}
	m["cif.write_ms"] = metric{per("cif.Write"), "ms"}
	compile := per("core.CompileCtx") + per("pass.core") + per("pass.control") + per("pass.pads") + per("pass.reps")
	m["pads.compile_share"] = metric{per("pass.pads") / max(compile, 1e-9), "ratio"}

	n := float64(max(len(ops), 1))
	mb := func(d core.AllocDelta) float64 { return float64(d.Bytes) / (1 << 20) / n }
	m["core.alloc_mb"] = metric{mb(w.allocs.Core), "MB"}
	m["decoder.alloc_mb"] = metric{mb(w.allocs.Control), "MB"}
	m["pads.alloc_mb"] = metric{mb(w.allocs.Pads), "MB"}
	m["reps.alloc_mb"] = metric{mb(w.allocs.Reps), "MB"}
}

func (w *compileWorkload) close() {}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
