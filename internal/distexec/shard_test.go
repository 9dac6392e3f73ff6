package distexec

import (
	"math/rand"
	"testing"

	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/israce"
	"rlgraph/internal/tensor"
)

// shardTriple is one round of a replay shard's three calls: insert 40 rows
// with priorities, sample 32, and write 32 new priorities back.
type shardTriple struct {
	sh                 *replayShard
	s, a, r, ns, t, pr *tensor.Tensor
	prio               *tensor.Tensor
}

func newShardTriple(tb testing.TB, backendName string) *shardTriple {
	tb.Helper()
	env := envs.NewPongSim(envs.PongConfig{Obs: envs.PongFeatures, FrameSkip: 4, PointsToWin: 5, Seed: 1})
	sh, err := newReplayShard(backendName, "replay-0", 20000, replayAlpha, replayBeta, env.StateSpace(), 1000)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const rows = 40
	sp := env.StateSpace().WithBatchRank()
	return &shardTriple{
		sh: sh,
		s:  sp.Sample(rng, rows), a: tensor.RandUniform(rng, 0, 3, rows),
		r: tensor.RandNormal(rng, 0, 1, rows), ns: sp.Sample(rng, rows),
		t: tensor.New(rows), pr: tensor.RandUniform(rng, 0.1, 2, rows),
		prio: tensor.RandUniform(rng, 0.1, 2, 32),
	}
}

func (st *shardTriple) run(tb testing.TB) {
	ex := st.sh.ex
	if _, err := ex.Execute("insert_with_priorities", st.s, st.a, st.r, st.ns, st.t, st.pr); err != nil {
		tb.Fatal(err)
	}
	outs, err := ex.Execute("sample", tensor.Scalar(32))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ex.Execute("update", outs[5], st.prio); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkReplayShardTriple times one insert/sample/update round of an
// Ape-X replay shard on each backend.
func BenchmarkReplayShardTriple(b *testing.B) {
	for _, be := range exec.Backends() {
		b.Run(be, func(b *testing.B) {
			st := newShardTriple(b, be)
			st.run(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.run(b)
			}
		})
	}
}

// TestReplayShardTripleAllocs bounds the allocations of a shard round on the
// static backend, which every shipped Ape-X config builds its shards on.
func TestReplayShardTripleAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector adds allocations")
	}
	st := newShardTriple(t, "static")
	st.run(t)
	if n := testing.AllocsPerRun(20, func() { st.run(t) }); n > 152 {
		t.Fatalf("shard triple made %.0f allocations, want at most 152", n)
	}
}
