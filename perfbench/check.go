package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"bristleblocks/internal/cif"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/invariant"
)

// compileCIF is the in-process op: parse, compile with all
// representations, write the CIF.
func compileCIF(text string, opts core.Options) (*core.Chip, []byte, error) {
	spec, err := desc.Parse(text)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	chip, err := core.CompileCtx(context.Background(), spec, &opts)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := cif.Write(&buf, chip.Mask, lambdaOf(chip)); err != nil {
		return nil, nil, err
	}
	return chip, buf.Bytes(), nil
}

func lambdaOf(chip *core.Chip) int {
	if l := chip.Spec.LambdaCentimicrons; l > 0 {
		return l
	}
	return cif.DefaultLambdaCentimicrons
}

// reference compiles one distinct input independently of the timed
// phase and cross-checks the chip's representations.
func reference(text string, opts core.Options, memo *checkMemo) (ref, *core.Chip, []byte, []string) {
	chip, out, err := compileCIF(text, opts)
	if err != nil {
		return ref{err: err.Error()}, nil, nil, nil
	}
	st := chip.Stats
	return ref{digest: sha256.Sum256(out), stats: &st, size: len(out)}, chip, out, memo.check(chip, text)
}

// checkAll runs fn over n inputs on GOMAXPROCS goroutines: the check pass
// is outside the timed phase, and invariant.Check is the slow part of it.
func checkAll(n int, fn func(i int) (ref, []string)) ([]ref, []string) {
	refs := make([]ref, n)
	vs := make([][]string, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], vs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	var all []string
	for _, v := range vs {
		all = append(all, v...)
	}
	return refs, all
}

// checkMemo remembers invariant.Check verdicts across runs. The verdict
// is a pure function of the compiler binary and the spec — every compile
// is byte-identical, and Check's simulation vectors come from a fixed
// seed — so it is keyed by both. An empty dir checks every time.
type checkMemo struct{ dir string }

// memoDir names the memo for this binary: a rebuilt compiler starts a
// fresh memo.
func memoDir() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return filepath.Join(buildDir, "checked", hex.EncodeToString(h.Sum(nil))[:16])
}

func (m *checkMemo) check(chip *core.Chip, text string) []string {
	if m == nil || m.dir == "" {
		return invariant.Check(chip, nil)
	}
	sum := sha256.Sum256([]byte(text))
	path := filepath.Join(m.dir, hex.EncodeToString(sum[:]))
	if b, err := os.ReadFile(path); err == nil {
		return splitViolations(string(b), chip.Spec.Name)
	}
	vs := invariant.Check(chip, nil)
	if err := os.MkdirAll(m.dir, 0o755); err == nil {
		// A lost memo write only costs the next run a re-check.
		_ = os.WriteFile(path, []byte(strings.Join(vs, "\n")), 0o644)
	}
	return prefix(vs, chip.Spec.Name)
}

func splitViolations(s, chip string) []string {
	if s == "" {
		return nil
	}
	return prefix(strings.Split(s, "\n"), chip)
}

func prefix(vs []string, chip string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = "invariant " + chip + ": " + v
	}
	return out
}
