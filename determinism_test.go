package dummyfill_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"testing"

	dummyfill "dummyfill"
	"dummyfill/internal/synth"
)

// TestInsertByteIdenticalGDS runs the full flow twice on the same layout
// with parallel workers and requires the serialized GDSII streams to be
// byte-identical — the engine's determinism contract all the way to the
// output file.
func TestInsertByteIdenticalGDS(t *testing.T) {
	lay, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	opts := dummyfill.DefaultOptions()
	opts.Workers = 4
	run := func() []byte {
		res, err := dummyfill.Insert(lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dummyfill.WriteGDS(&buf, lay, &res.Solution); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("GDSII streams differ: %d vs %d bytes, first divergence at offset %d", len(a), len(b), i)
	}
}

// goldenGDS pins the SHA-256 of the full-flow GDSII output per benchmark
// design. These hashes were recorded before the streaming-pipeline
// restructure; any drift means the engine's output changed, which this
// repository treats as a regression unless the hashes are deliberately
// re-recorded alongside the change that justifies it.
var goldenGDS = map[string]string{
	"tiny": "80d97afb0c4704580c5e606bc5a009ab274f07569b6ca7e23218530279373bbc",
	"s":    "431897dfbcb07ba08181c582c1703054728e17655da2ed5d570f281551fa9af5",
	"b":    "32d77c35e07ad8a867ba8d4de11eb9ab5bc380d4398286b064282c57846087d4",
	"m":    "b1f7bc39a20d5dda850847c6d71cea8175548dfb3ec42952d9530ad4aff6c1f2",
}

func gdsHash(t *testing.T, design string, workers int) string {
	t.Helper()
	return gdsHashSharded(t, design, workers, 0)
}

func gdsHashSharded(t *testing.T, design string, workers, shards int) string {
	t.Helper()
	lay, _, err := dummyfill.GenerateBenchmark(design)
	if err != nil {
		t.Fatal(err)
	}
	opts := dummyfill.DefaultOptions()
	opts.Workers = workers
	opts.Shards = shards
	res, err := dummyfill.Insert(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dummyfill.WriteGDS(&buf, lay, &res.Solution); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenGDSHashes checks the end-to-end output against the pinned
// hashes across worker counts. The small designs run always; the larger
// ones (several seconds each) are skipped under -short so the CI smoke
// stays fast.
func TestGoldenGDSHashes(t *testing.T) {
	workerSets := map[string][]int{
		"tiny": {1, 4, runtime.NumCPU()},
		"s":    {1, 4, runtime.NumCPU()},
		"b":    {4},
		"m":    {4},
	}
	for _, design := range []string{"tiny", "s", "b", "m"} {
		design := design
		t.Run(design, func(t *testing.T) {
			if testing.Short() && (design == "b" || design == "m") {
				t.Skip("large design skipped under -short")
			}
			for _, workers := range workerSets[design] {
				if got := gdsHash(t, design, workers); got != goldenGDS[design] {
					t.Fatalf("workers=%d: GDS hash %s, want %s", workers, got, goldenGDS[design])
				}
			}
		})
	}
}

// TestGoldenGDSHashesSharded checks that row-band sharding never changes
// the output: every (shards, workers) pair must reproduce the same pinned
// golden hashes as the unsharded run. Sharding redistributes planning
// assembly and fill emission across shard-local schedules; the reconciled
// global targets and the per-window sizing are byte-for-byte unaffected.
func TestGoldenGDSHashesSharded(t *testing.T) {
	shardSet := []int{1, 2, 4, runtime.NumCPU()}
	workerSet := []int{1, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		// Force a genuinely parallel schedule even on single-core hosts.
		workerSet = []int{1, 4}
	}
	for _, design := range []string{"tiny", "s"} {
		design := design
		t.Run(design, func(t *testing.T) {
			for _, shards := range shardSet {
				for _, workers := range workerSet {
					if got := gdsHashSharded(t, design, workers, shards); got != goldenGDS[design] {
						t.Fatalf("shards=%d workers=%d: GDS hash %s, want %s",
							shards, workers, got, goldenGDS[design])
					}
				}
			}
		})
	}
}

// TestInsertStreamShardedDeterministic checks the streaming path under
// sharding: every (shards, workers) combination must produce a stream
// byte-identical to the unsharded single-worker reference — the one
// reorder buffer hands the sink the exact same strictly increasing window
// sequence regardless of shard or worker count.
func TestInsertStreamShardedDeterministic(t *testing.T) {
	lay, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	stream := func(workers, shards int) []byte {
		opts := dummyfill.DefaultOptions()
		opts.Workers = workers
		opts.Shards = shards
		var buf bytes.Buffer
		if _, err := dummyfill.InsertStreamTo(context.Background(), &buf, lay, opts, "gds"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := stream(1, 1)
	for _, shards := range []int{1, 2, 4, runtime.NumCPU()} {
		for _, workers := range []int{1, 2, 4, 7} {
			if got := stream(workers, shards); !bytes.Equal(ref, got) {
				t.Fatalf("streamed GDS differs at shards=%d workers=%d", shards, workers)
			}
		}
	}
}

// TestInsertStreamGDSDeterministic checks the bounded-memory streaming
// writer produces byte-identical GDSII across worker counts, and that the
// streamed fill set equals the barrier path's (streaming changes only the
// emit order — grouped by window instead of globally sorted — never the
// geometry).
func TestInsertStreamGDSDeterministic(t *testing.T) {
	lay, _, err := dummyfill.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	stream := func(workers int) []byte {
		opts := dummyfill.DefaultOptions()
		opts.Workers = workers
		var buf bytes.Buffer
		if _, err := dummyfill.InsertStreamTo(context.Background(), &buf, lay, opts, "gds"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := stream(1)
	for _, workers := range []int{4, runtime.NumCPU()} {
		if got := stream(workers); !bytes.Equal(ref, got) {
			t.Fatalf("streamed GDS differs between workers=1 and workers=%d", workers)
		}
	}

	// Fill-set equivalence with the barrier path.
	opts := dummyfill.DefaultOptions()
	opts.Workers = 4
	var streamed []dummyfill.Fill
	if _, err := dummyfill.InsertStream(context.Background(), lay, opts, dummyfill.FillSinkFunc(func(_ int, fs []dummyfill.Fill) error {
		streamed = append(streamed, fs...)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	res, err := dummyfill.Insert(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(fs []dummyfill.Fill) []dummyfill.Fill {
		out := append([]dummyfill.Fill(nil), fs...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Layer != b.Layer {
				return a.Layer < b.Layer
			}
			if a.Rect.XL != b.Rect.XL {
				return a.Rect.XL < b.Rect.XL
			}
			if a.Rect.YL != b.Rect.YL {
				return a.Rect.YL < b.Rect.YL
			}
			if a.Rect.XH != b.Rect.XH {
				return a.Rect.XH < b.Rect.XH
			}
			return a.Rect.YH < b.Rect.YH
		})
		return out
	}
	a, b := canon(streamed), canon(res.Solution.Fills)
	if len(a) != len(b) {
		t.Fatalf("streamed %d fills, barrier %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fill %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestGoldenGDSHashesCached adds the fill-cache row to the determinism
// matrix: a cold cache-populating run, warm replaying runs across
// worker/shard topologies, and a partially-invalidated run on an
// ECO-perturbed layout must all reproduce the exact byte stream the
// uncached flow produces — the cache may change wall-clock, never
// geometry.
func TestGoldenGDSHashesCached(t *testing.T) {
	hashWith := func(t *testing.T, lay *dummyfill.Layout, cache *dummyfill.FillCache, workers, shards int) string {
		t.Helper()
		opts := dummyfill.DefaultOptions()
		opts.Workers = workers
		opts.Shards = shards
		opts.Cache = cache
		res, err := dummyfill.Insert(lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dummyfill.WriteGDS(&buf, lay, &res.Solution); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	for _, design := range []string{"tiny", "s"} {
		design := design
		t.Run(design, func(t *testing.T) {
			if testing.Short() && design == "s" {
				t.Skip("larger design skipped under -short")
			}
			cache, err := dummyfill.OpenFillCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			lay, _, err := dummyfill.GenerateBenchmark(design)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashWith(t, lay, cache, 1, 1); got != goldenGDS[design] {
				t.Fatalf("cold cached run: GDS hash %s, want %s", got, goldenGDS[design])
			}
			for _, topo := range [][2]int{{1, 1}, {4, 2}, {2, 4}} {
				if got := hashWith(t, lay, cache, topo[0], topo[1]); got != goldenGDS[design] {
					t.Fatalf("warm workers=%d shards=%d: GDS hash %s, want %s",
						topo[0], topo[1], got, goldenGDS[design])
				}
			}

			// Partial invalidation: a perturbed layout served mostly from
			// the cache must byte-match the same layout computed uncached.
			eco, moved, err := synth.PerturbECO(lay, 0.05, 11)
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatal("perturbation moved no wires; partial-invalidation case is vacuous")
			}
			want := hashWith(t, eco, nil, 4, 2)
			if got := hashWith(t, eco, cache, 4, 2); got != want {
				t.Fatalf("partially-invalidated run: GDS hash %s, want uncached %s", got, want)
			}
		})
	}
}
