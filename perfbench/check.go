package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	dummyfill "dummyfill"
	"dummyfill/internal/fill"
	"dummyfill/internal/layout"
)

// checker verifies job outputs outside the timed spans. The first output
// for an input gets the full check (DRC clean, contest quality); every
// later output for the same input must be byte-identical to it.
type checker struct {
	coeffs dummyfill.Coefficients
	refs   map[int]verdict
}

type verdict struct {
	sum     [32]byte
	quality float64
	err     error
}

func newChecker(c dummyfill.Coefficients) *checker {
	return &checker{coeffs: c, refs: map[int]verdict{}}
}

// seen reports whether input already has a reference output, i.e.
// whether check would only compare bytes.
func (c *checker) seen(input int) bool {
	_, ok := c.refs[input]
	return ok
}

// check verifies one output of input (parsed as lay) and returns its
// quality, or an error saying why the job failed. lay is used only for
// the input's first output.
func (c *checker) check(input int, lay *layout.Layout, out []byte) (float64, error) {
	sum := sha256.Sum256(out)
	if c.seen(input) {
		return c.compare(input, sum)
	}
	v := verdict{sum: sum}
	v.quality, v.err = c.full(lay, out)
	c.refs[input] = v
	return v.quality, v.err
}

// compare checks an output known by its hash against the first output
// for the same input, which must have been checked already.
func (c *checker) compare(input int, sum [32]byte) (float64, error) {
	v, ok := c.refs[input]
	if !ok {
		return 0, fmt.Errorf("input %d: no checked output to compare with", input)
	}
	if v.sum != sum {
		return 0, fmt.Errorf("input %d: output differs from the first output for the same input", input)
	}
	return v.quality, v.err
}

func (c *checker) full(lay *layout.Layout, out []byte) (float64, error) {
	_, fills, err := dummyfill.ReadGDSShapes(bytes.NewReader(out))
	if err != nil {
		return 0, fmt.Errorf("reading output: %w", err)
	}
	var sol layout.Solution
	n := 0
	for l := 0; l < len(lay.Layers); l++ {
		for _, r := range fills[l] {
			sol.Fills = append(sol.Fills, layout.Fill{Layer: l, Rect: r})
		}
	}
	for _, rs := range fills {
		n += len(rs)
	}
	if n != len(sol.Fills) {
		return 0, fmt.Errorf("output holds fills on layers the input lacks")
	}
	if n == 0 {
		return 0, fmt.Errorf("output holds no fills")
	}
	if v := dummyfill.CheckDRC(lay, &sol); len(v) > 0 {
		return 0, fmt.Errorf("%d DRC violations, first: %v", len(v), v[0])
	}
	rep, err := dummyfill.Score(lay, &sol, c.coeffs, dummyfill.Measured{FileSizeBytes: int64(len(out))})
	if err != nil {
		return 0, err
	}
	return rep.Quality, nil
}

// checkHealth fails a job whose engine run degraded windows; fill-b and
// eco-b run without a budget, so any degradation is a defect.
func checkHealth(h fill.Health) error {
	if h.Degraded != 0 {
		return fmt.Errorf("%d windows degraded", h.Degraded)
	}
	return nil
}
