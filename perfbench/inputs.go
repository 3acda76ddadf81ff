package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"

	dummyfill "dummyfill"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// ecoFrac is the share of windows one synthetic ECO edit touches.
const ecoFrac = 0.02

// encodeGDS returns lay's wires as a GDSII stream: the bytes a user
// submits for filling.
func encodeGDS(lay *layout.Layout) ([]byte, error) {
	var b bytes.Buffer
	if err := dummyfill.WriteGDS(&b, lay, &layout.Solution{}); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// ingestOptions are the options a user reading lay's GDS back would
// pass: the design's rules and window, which GDSII does not carry.
func ingestOptions(lay *layout.Layout) dummyfill.IngestOptions {
	return dummyfill.IngestOptions{Rules: lay.Rules, Window: lay.Window}
}

// design generates sp with its contest score coefficients.
func design(sp synth.Spec) (*layout.Layout, dummyfill.Coefficients, error) {
	lay, err := synth.Generate(sp)
	if err != nil {
		return nil, dummyfill.Coefficients{}, err
	}
	c, err := synth.Coefficients(sp, lay)
	return lay, c, err
}

// ecoInput is the fill-b input: base after one ECO edit whose seed is the
// first draw of the workload seed's generator.
func ecoInput(base *layout.Layout, seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	lay, _, err := synth.PerturbECO(base, ecoFrac, rng.Int63())
	if err != nil {
		return nil, err
	}
	return encodeGDS(lay)
}

// ecoChain is the eco-b input: steps+1 layouts where step 0 is lay and
// step k applies one ECO edit to step k-1, with the edit seeds drawn in
// order from the workload seed's generator. Every step is kept, whatever
// the edit does to the density plan.
func ecoChain(lay *layout.Layout, seed int64, steps int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, steps+1)
	for k := 0; k <= steps; k++ {
		if k > 0 {
			var err error
			if lay, _, err = synth.PerturbECO(lay, ecoFrac, rng.Int63()); err != nil {
				return nil, err
			}
		}
		b, err := encodeGDS(lay)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// servePool is the serve-tiny payload pool: n distinct single-edit ECO
// variants of base, with edit seeds drawn in order from the workload
// seed's generator (a draw repeating an earlier variant is passed over).
func servePool(base *layout.Layout, seed int64, n int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[32]byte]bool{}
	var pool [][]byte
	for tries := 0; len(pool) < n; tries++ {
		if tries == 20*n {
			return nil, fmt.Errorf("only %d distinct ECO variants of %s in %d draws", len(pool), base.Name, tries)
		}
		lay, _, err := synth.PerturbECO(base, ecoFrac, rng.Int63())
		if err != nil {
			return nil, err
		}
		b, err := encodeGDS(lay)
		if err != nil {
			return nil, err
		}
		if h := sha256.Sum256(b); !seen[h] {
			seen[h] = true
			pool = append(pool, b)
		}
	}
	return pool, nil
}

// requestOrder draws which pool entry each of n open-loop requests sends.
// Its generator is seeded apart from the pool's so that the pool does not
// depend on the run length.
func requestOrder(seed int64, n, poolSize int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(poolSize)
	}
	return out
}
