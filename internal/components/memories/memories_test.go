package memories

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rlgraph/internal/component"
	"rlgraph/internal/exec"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

func TestSegmentTreeSumBasics(t *testing.T) {
	st := NewSumTree(6)
	for i, v := range []float64{1, 2, 3, 4, 5, 6} {
		st.Set(i, v)
	}
	if st.Reduce() != 21 {
		t.Fatalf("total = %g", st.Reduce())
	}
	st.Set(2, 0)
	if st.Reduce() != 18 {
		t.Fatalf("after update total = %g", st.Reduce())
	}
}

func TestSegmentTreeMin(t *testing.T) {
	st := NewMinTree(5)
	for i, v := range []float64{5, 3, 8, 1, 9} {
		st.Set(i, v)
	}
	if st.Reduce() != 1 {
		t.Fatalf("min = %g", st.Reduce())
	}
	st.Set(3, 10)
	if st.Reduce() != 3 {
		t.Fatalf("min after update = %g", st.Reduce())
	}
}

func TestFindPrefixSum(t *testing.T) {
	st := NewSumTree(4)
	for i, v := range []float64{1, 2, 3, 4} {
		st.Set(i, v)
	}
	cases := []struct {
		p    float64
		want int
	}{{0.5, 0}, {1.0, 0}, {1.5, 1}, {3.0, 1}, {3.5, 2}, {6.0, 2}, {9.9, 3}}
	for _, c := range cases {
		if got := st.FindPrefixSum(c.p); got != c.want {
			t.Errorf("FindPrefixSum(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

// Property: the sum tree's total always equals the direct sum of leaves, and
// FindPrefixSum returns a leaf whose cumulative range covers p.
func TestSegmentTreeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		st := NewSumTree(n)
		leaves := make([]float64, n)
		for i := range leaves {
			leaves[i] = rng.Float64() * 10
			st.Set(i, leaves[i])
		}
		direct := 0.0
		for _, v := range leaves {
			direct += v
		}
		if math.Abs(st.Reduce()-direct) > 1e-9 {
			return false
		}
		p := rng.Float64() * direct
		idx := st.FindPrefixSum(p)
		if idx < 0 || idx >= st.size {
			return false
		}
		// Cumulative sum up to idx-1 must be < p <= cumulative up to idx
		// (within fp tolerance).
		cum := 0.0
		for i := 0; i < idx; i++ {
			cum += leaves[i]
		}
		var leaf float64
		if idx < n {
			leaf = leaves[idx]
		}
		return cum < p+1e-9 && p <= cum+leaf+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// replaySpaces declares the (s, a, r) record layout used in memory tests.
func replaySpaces() []spaces.Space {
	return []spaces.Space{
		spaces.NewFloatBox(4).WithBatchRank(),
		spaces.NewIntBox(3).WithBatchRank(),
		spaces.NewFloatBox().WithBatchRank(),
	}
}

func batchScalar(v float64) *tensor.Tensor { return tensor.Scalar(v) }

func TestRingReplayInsertSampleBothBackends(t *testing.T) {
	for _, b := range exec.Backends() {
		t.Run(b, func(t *testing.T) {
			m := NewRingReplay("mem", 8, 3, 1)
			ct, err := exec.NewComponentTest(b, m.Component, exec.InputSpaces{
				"insert": replaySpaces(),
				"sample": {spaces.NewFloatBox()},
			})
			if err != nil {
				t.Fatal(err)
			}
			s := tensor.Arange(0, 8).Reshape(2, 4)
			a := tensor.FromSlice([]float64{0, 2}, 2)
			r := tensor.FromSlice([]float64{1.5, -0.5}, 2)
			size, err := ct.Test1("insert", s, a, r)
			if err != nil {
				t.Fatal(err)
			}
			if size.Item() != 2 {
				t.Fatalf("size = %g", size.Item())
			}
			outs, err := ct.Test("sample", batchScalar(5))
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.SameShape(outs[0].Shape(), []int{5, 4}) {
				t.Fatalf("state shape = %v", outs[0].Shape())
			}
			// All sampled rewards must be one of the inserted values.
			for _, v := range outs[2].Data() {
				if v != 1.5 && v != -0.5 {
					t.Fatalf("sampled unknown reward %g", v)
				}
			}
		})
	}
}

func TestRingReplayFIFOOverwrite(t *testing.T) {
	m := NewRingReplay("mem", 4, 1, 1)
	ct, err := exec.NewComponentTest("define-by-run", m.Component, exec.InputSpaces{
		"insert": {spaces.NewFloatBox().WithBatchRank()},
		"sample": {spaces.NewFloatBox()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Insert 6 records into capacity 4: values 0..5; 0 and 1 must be gone.
	if _, err := ct.Test("insert", tensor.Arange(0, 6).Reshape(6)); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 4 {
		t.Fatalf("size = %d", m.Size())
	}
	outs, err := ct.Test("sample", batchScalar(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range outs[0].Data() {
		if v < 2 {
			t.Fatalf("sampled overwritten record %g", v)
		}
	}
}

func TestRingReplaySampleBeforeInsertErrors(t *testing.T) {
	// A root exposing only the sample path never makes the memory
	// input-complete: the build must fail loudly (constraint violation,
	// paper §3.3) instead of allocating bogus buffers.
	m := NewRingReplay("mem", 4, 1, 1)
	root := component.New("root")
	root.AddSub(m.Component)
	root.DefineAPI("draw", func(ctx *component.Ctx, in []*component.Rec) []*component.Rec {
		return m.Call(ctx, "sample", in...)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected build panic for input-incomplete memory")
		}
	}()
	_, _ = exec.NewComponentTest("static", root, exec.InputSpaces{
		"draw": {spaces.NewFloatBox()},
	})
}

func TestPrioritizedReplaySampleSkewsTowardHighPriority(t *testing.T) {
	m := NewPrioritizedReplay("prio", 8, 1, 0.8, 0.4, 3)
	ct, err := exec.NewComponentTest("define-by-run", m.Component, exec.InputSpaces{
		"insert":                 {spaces.NewFloatBox().WithBatchRank()},
		"insert_with_priorities": {spaces.NewFloatBox().WithBatchRank(), spaces.NewFloatBox().WithBatchRank()},
		"sample":                 {spaces.NewFloatBox()},
		"update":                 {spaces.NewFloatBox().WithBatchRank(), spaces.NewFloatBox().WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two records: value 0 with tiny priority, value 1 with huge priority.
	vals := tensor.FromSlice([]float64{0, 1}, 2)
	prios := tensor.FromSlice([]float64{0.001, 10}, 2)
	if _, err := ct.Test("insert_with_priorities", vals, prios); err != nil {
		t.Fatal(err)
	}
	outs, err := ct.Test("sample", batchScalar(200))
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range outs[0].Data() {
		if v == 1 {
			ones++
		}
	}
	if ones < 180 {
		t.Fatalf("high-priority record sampled only %d/200 times", ones)
	}
	// Importance weights: the rarely-sampled record has weight 1 (max),
	// the frequent record less (or equal).
	indices, weights := outs[1], outs[2]
	for i, idx := range indices.Data() {
		w := weights.Data()[i]
		if idx == 1 && w > 1.0+1e-9 {
			t.Fatalf("frequent record weight %g > 1", w)
		}
	}
}

func TestPrioritizedReplayUpdateChangesSampling(t *testing.T) {
	m := NewPrioritizedReplay("prio", 8, 1, 1.0, 0.5, 4)
	ct, err := exec.NewComponentTest("define-by-run", m.Component, exec.InputSpaces{
		"insert": {spaces.NewFloatBox().WithBatchRank()},
		"sample": {spaces.NewFloatBox()},
		"update": {spaces.NewFloatBox().WithBatchRank(), spaces.NewFloatBox().WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Test("insert", tensor.FromSlice([]float64{0, 1}, 2)); err != nil {
		t.Fatal(err)
	}
	// Crush record 0's priority; boost record 1's.
	if _, err := ct.Test("update",
		tensor.FromSlice([]float64{0, 1}, 2),
		tensor.FromSlice([]float64{0.0001, 50}, 2)); err != nil {
		t.Fatal(err)
	}
	outs, err := ct.Test("sample", batchScalar(100))
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range outs[0].Data() {
		if v == 1 {
			ones++
		}
	}
	if ones < 90 {
		t.Fatalf("updated priorities ignored: %d/100", ones)
	}
}

func TestPrioritizedReplayStaticBackend(t *testing.T) {
	m := NewPrioritizedReplay("prio", 16, 2, 0.6, 0.4, 5)
	ct, err := exec.NewComponentTest("static", m.Component, exec.InputSpaces{
		"insert": {spaces.NewFloatBox(3).WithBatchRank(), spaces.NewFloatBox().WithBatchRank()},
		"sample": {spaces.NewFloatBox()},
		"update": {spaces.NewFloatBox().WithBatchRank(), spaces.NewFloatBox().WithBatchRank()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	st := tensor.RandNormal(rng, 0, 1, 4, 3)
	rw := tensor.RandNormal(rng, 0, 1, 4)
	if _, err := ct.Test("insert", st, rw); err != nil {
		t.Fatal(err)
	}
	outs, err := ct.Test("sample", batchScalar(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("outputs = %d, want fields+indices+weights = 4", len(outs))
	}
	if !tensor.SameShape(outs[0].Shape(), []int{3, 3}) {
		t.Fatalf("state shape = %v", outs[0].Shape())
	}
	// The component graph includes the segment-tree sub-component (Fig. 2).
	found := false
	for _, sub := range m.Component.Subs() {
		found = found || sub.Name() == "segment-tree"
	}
	if !found {
		t.Fatal("segment-tree sub-component missing")
	}
}

// Property: sampled slots always index live records.
func TestPrioritizedSampleIndicesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewPrioritizedReplay("prio", 8, 1, 0.7, 0.5, seed)
		ct, err := exec.NewComponentTest("define-by-run", m.Component, exec.InputSpaces{
			"insert": {spaces.NewFloatBox().WithBatchRank()},
			"sample": {spaces.NewFloatBox()},
			"update": {spaces.NewFloatBox().WithBatchRank(), spaces.NewFloatBox().WithBatchRank()},
		})
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(6)
		if _, err := ct.Test("insert", tensor.Arange(0, n).Reshape(n)); err != nil {
			return false
		}
		outs, err := ct.Test("sample", batchScalar(10))
		if err != nil {
			return false
		}
		for _, idx := range outs[1].Data() {
			if int(idx) < 0 || int(idx) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
