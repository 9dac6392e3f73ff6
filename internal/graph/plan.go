package graph

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"rlgraph/internal/tensor"
)

// StatefulOp is implemented by ops whose Eval reads or writes state that
// lives outside the op's input tensors (variables, replay memories, host
// counters). The plan scheduler keeps every such step in serial evaluation
// order — also under the parallel scheduler — so stateful programs execute
// bit-for-bit identically at any parallelism level. Pure ops only synchronize
// through their dataflow edges.
type StatefulOp interface {
	Op
	// StatefulEval marks the op as order-sensitive; it carries no behaviour.
	StatefulEval()
}

// step is one compiled op evaluation: the node, its output value slot, and
// the range of input slots in Plan.insSlots. Steps produced by the fusion
// pass carry a specialized evaluator and the list of absorbed nodes.
type step struct {
	node     *Node
	out      int32 // output value slot
	insOff   int32 // offset into Plan.insSlots (and the run's input scratch)
	insLen   int32
	schedDev int32 // index into Plan.schedDevices; -1 = unconstrained
	statDev  int32 // index into Plan.statDevices (always valid)

	eval  stepEval // non-nil on fused steps; overrides node.op.Eval
	fused []*Node  // producer nodes absorbed into this step (see fuse.go)
}

// evals returns how many op evaluations this step represents (itself plus any
// absorbed producers), keeping profiling counters fusion-independent.
func (st *step) evals() int64 { return int64(1 + len(st.fused)) }

// run evaluates the step: its fused evaluator, or its node's op.
func (st *step) run(ctx *RunCtx, ins []*tensor.Tensor) (*tensor.Tensor, error) {
	if st.eval != nil {
		return st.eval(ctx, ins)
	}
	return st.node.op.Eval(ctx, ins)
}

// planParallelThreshold is the least slack, in multiply-adds, at which a plan
// runs in parallel on its own: above every plan of the crossover table that
// the second core did not speed up (EXPERIMENTS.md, PR 51).
const planParallelThreshold = 1 << 22

// feedBind records a slot that must be populated from the feed dict.
type feedBind struct {
	node *Node
	slot int32
}

// Plan is a compiled execution schedule for one (fetch-set, feed-set) pair:
// the transitive closure of the fetches (including control dependencies),
// topologically sorted in exactly the order the recursive evaluator would
// visit it, with every node assigned a dense value slot. Runs execute the
// flat step list iteratively over a slot-indexed value array — no recursion,
// no per-run memo map, stable op ordering. Plans are immutable after
// compilation and safe for concurrent Run use.
type Plan struct {
	g          *Graph
	steps      []step
	insSlots   []int32 // concatenated input slot lists, indexed via step.insOff
	nslots     int
	fetchSlots []int32
	feeds      []feedBind
	feedSlot   map[*Node]int32 // fed node -> slot
	slotOf     map[*Node]int32 // every closure node (fed nodes and steps)

	// Parallel-scheduler metadata: per-step successor lists and initial
	// indegrees over dataflow edges, control-dependency edges, and the
	// stateful chain.
	succ   [][]int32
	indeg0 []int32

	// statDevices indexes the device-name tally (includes ""); schedDevices
	// lists only named devices, whose steps serialize through a per-device
	// stream semaphore.
	statDevices  []string
	schedDevices []string

	// Buffer-release schedules, both derived from the same liveness analysis
	// (computeRelease): a slot is recyclable iff its producer and every
	// consumer have value semantics and it is neither fetched nor fed.
	//
	// release[i] lists slots whose last-use step (in compiled order) is i —
	// the serial executor's schedule, where step order equals completion
	// order.
	//
	// The parallel executor releases in completion order instead: readers0
	// holds each recyclable slot's remaining-reader count (the number of
	// distinct steps that read it, or 1 for a producer-released slot with no
	// consumers), and stepRelease[i] lists the recyclable slots step i
	// decrements when it completes. The worker whose decrement reaches zero
	// returns the slot's tensor to the arena.
	release     [][]int32
	readers0    []int32
	stepRelease [][]int32

	// cost comes from the operand shapes of the plan's first serial run
	// (static shapes leave the batch open); nil until then.
	cost atomic.Pointer[planCost]

	scratch sync.Pool
}

// planScratch is the reusable per-run buffer set.
type planScratch struct {
	values  []*tensor.Tensor
	ins     []*tensor.Tensor
	indeg   []int32
	readers []int32
	par     parRun
}

// planKey builds the cache key for a fetch-set under a feed-key-set: fetch
// ids in order, then fed node ids sorted, then the fusion flag (fused and
// unfused compilations of the same fetch-set are distinct plans), then the
// graph's placement epoch. Plans depend on the feed keys because fed nodes
// are sources — their subgraphs are pruned from the plan — and on the epoch
// because compiled steps bake in device assignments (stream scheduling,
// per-device tallies): re-placing nodes with SetDevice must not serve a plan
// with the old placements.
func planKey(g *Graph, fetches []*Node, feeds Feeds, fuse bool) string {
	b := make([]byte, 0, 8*(len(fetches)+len(feeds)))
	for _, f := range fetches {
		b = strconv.AppendInt(b, int64(f.id), 36)
		b = append(b, ',')
	}
	b = append(b, '|')
	if len(feeds) > 0 {
		ids := make([]int, 0, len(feeds))
		for n := range feeds {
			if n.g == g {
				ids = append(ids, n.id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			b = strconv.AppendInt(b, int64(id), 36)
			b = append(b, ',')
		}
	}
	if fuse {
		b = append(b, '|', 'F')
	}
	b = append(b, '|', 'E')
	b = strconv.AppendUint(b, g.placementEpoch, 36)
	return string(b)
}

const (
	visitWhite = iota
	visitGrey
	visitBlack
)

// compilePlan topologically sorts the transitive closure of fetches via an
// iterative DFS that mirrors the recursive evaluator's visit order (control
// deps before inputs, both in declaration order), assigns value slots, runs
// the elementwise fusion pass (when fuse is set), and precomputes the
// parallel-scheduler edge lists plus the buffer-release schedule. Fed nodes
// become sources: they get slots but no steps, and their subgraphs are not
// visited.
func compilePlan(g *Graph, fetches []*Node, fed map[*Node]bool, fuse bool) (*Plan, error) {
	p := &Plan{
		g:        g,
		feedSlot: make(map[*Node]int32),
		slotOf:   make(map[*Node]int32),
	}
	state := make([]uint8, g.NumNodes())
	statDevIdx := map[string]int32{}
	schedDevIdx := map[string]int32{}
	nextSlot := int32(0)

	ensureFeedSlot := func(n *Node) {
		if _, ok := p.slotOf[n]; ok {
			return
		}
		slot := nextSlot
		nextSlot++
		p.slotOf[n] = slot
		p.feedSlot[n] = slot
		p.feeds = append(p.feeds, feedBind{node: n, slot: slot})
	}

	emitStep := func(n *Node) {
		out := nextSlot
		nextSlot++
		p.slotOf[n] = out
		insOff := int32(len(p.insSlots))
		for _, in := range n.inputs {
			p.insSlots = append(p.insSlots, p.slotOf[in])
		}
		sd, ok := statDevIdx[n.device]
		if !ok {
			sd = int32(len(p.statDevices))
			statDevIdx[n.device] = sd
			p.statDevices = append(p.statDevices, n.device)
		}
		schedDev := int32(-1)
		if n.device != "" {
			d, ok := schedDevIdx[n.device]
			if !ok {
				d = int32(len(p.schedDevices))
				schedDevIdx[n.device] = d
				p.schedDevices = append(p.schedDevices, n.device)
			}
			schedDev = d
		}
		p.steps = append(p.steps, step{
			node: n, out: out,
			insOff: insOff, insLen: int32(len(n.inputs)),
			schedDev: schedDev, statDev: sd,
		})
	}

	type frame struct {
		n     *Node
		child int
	}
	var stack []frame

	visitRoot := func(root *Node) error {
		if root.g != g {
			return fmt.Errorf("graph: fetch %v belongs to a different graph", root)
		}
		if fed[root] {
			ensureFeedSlot(root)
			return nil
		}
		if state[root.id] == visitBlack {
			return nil
		}
		state[root.id] = visitGrey
		stack = append(stack[:0], frame{n: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			n := f.n
			if nc := len(n.deps) + len(n.inputs); f.child < nc {
				var c *Node
				if f.child < len(n.deps) {
					c = n.deps[f.child]
				} else {
					c = n.inputs[f.child-len(n.deps)]
				}
				f.child++
				if c.g != g {
					return fmt.Errorf("graph: node %v belongs to a different graph", c)
				}
				if fed[c] {
					ensureFeedSlot(c)
					continue
				}
				switch state[c.id] {
				case visitBlack:
					continue
				case visitGrey:
					return fmt.Errorf("graph: cycle detected through %v and %v", n, c)
				}
				state[c.id] = visitGrey
				stack = append(stack, frame{n: c})
				continue
			}
			state[n.id] = visitBlack
			emitStep(n)
			stack = stack[:len(stack)-1]
		}
		return nil
	}

	for _, f := range fetches {
		if err := visitRoot(f); err != nil {
			return nil, err
		}
	}

	p.fetchSlots = make([]int32, len(fetches))
	for i, f := range fetches {
		p.fetchSlots[i] = p.slotOf[f]
	}
	p.nslots = int(nextSlot)

	if fuse {
		p.fuseSteps()
	}

	// Map every evaluated node — including producers absorbed into fused
	// steps — to the step that computes it, for scheduler edges and liveness.
	nodeStep := make(map[*Node]int32, len(p.steps))
	for i := range p.steps {
		nodeStep[p.steps[i].node] = int32(i)
		for _, c := range p.steps[i].fused {
			nodeStep[c] = int32(i)
		}
	}

	// Parallel edges: unique predecessor lists over inputs and control deps
	// (of the step's node and any absorbed nodes), plus a chain through all
	// stateful steps in serial order. Fusion only touches pure elementwise
	// steps, so the stateful chain is unaffected by it.
	preds := make([][]int32, len(p.steps))
	addPred := func(i int, si int32) {
		if si == int32(i) {
			return
		}
		for _, e := range preds[i] {
			if e == si {
				return
			}
		}
		preds[i] = append(preds[i], si)
	}
	for i := range p.steps {
		members := p.steps[i].fused
		for m := -1; m < len(members); m++ {
			n := p.steps[i].node
			if m >= 0 {
				n = members[m]
			}
			for _, d := range n.deps {
				if si, ok := nodeStep[d]; ok {
					addPred(i, si)
				}
			}
			for _, in := range n.inputs {
				if si, ok := nodeStep[in]; ok {
					addPred(i, si)
				}
			}
		}
	}
	prev := int32(-1)
	for i := range p.steps {
		if _, ok := p.steps[i].node.op.(StatefulOp); ok {
			if prev >= 0 {
				addPred(i, prev)
			}
			prev = int32(i)
		}
	}
	p.succ = make([][]int32, len(p.steps))
	p.indeg0 = make([]int32, len(p.steps))
	for i := range p.steps {
		p.indeg0[i] = int32(len(preds[i]))
		for _, pr := range preds[i] {
			p.succ[pr] = append(p.succ[pr], int32(i))
		}
	}

	p.computeRelease()

	nslots, insTotal, nsteps, ndev := p.nslots, len(p.insSlots), len(p.steps), len(p.schedDevices)
	p.scratch.New = func() any {
		sc := &planScratch{
			values:  make([]*tensor.Tensor, nslots),
			ins:     make([]*tensor.Tensor, insTotal),
			indeg:   make([]int32, nsteps),
			readers: make([]int32, nslots),
		}
		sc.par = parRun{p: p, sc: sc, busy: make([]int32, ndev), streams: make([]int32, ndev)}
		sc.par.loop = sc.par.runLoop
		return sc
	}
	return p, nil
}

// computeRelease runs last-use liveness over the value slots and fills
// p.release. A slot's tensor may be recycled after its last reading step iff:
//
//   - it is produced by a step whose op has value semantics (fresh, unaliased
//     output) — fused steps qualify by construction;
//   - every consumer has value semantics too (no consumer aliases or retains
//     the tensor past its own Eval);
//   - it is neither fetched (returned to the caller) nor fed (owned by the
//     caller).
//
// Slots with a value-semantics producer and no consumers (control-dependency
// targets whose results are discarded) release immediately after their
// producing step.
func (p *Plan) computeRelease() {
	vs := make([]bool, len(p.steps))
	for i := range p.steps {
		if p.steps[i].eval != nil {
			vs[i] = true
			continue
		}
		_, vs[i] = p.steps[i].node.op.(ValueSemanticsOp)
	}
	producer := make([]int32, p.nslots)
	releasable := make([]bool, p.nslots)
	last := make([]int32, p.nslots)
	for s := range producer {
		producer[s] = -1
	}
	for i := range p.steps {
		st := &p.steps[i]
		producer[st.out] = int32(i)
		releasable[st.out] = vs[i]
		last[st.out] = int32(i)
	}
	for i := range p.steps {
		st := &p.steps[i]
		for _, s := range p.insSlots[st.insOff : st.insOff+st.insLen] {
			if !vs[i] {
				releasable[s] = false
			}
			if int32(i) > last[s] {
				last[s] = int32(i)
			}
		}
	}
	for _, s := range p.fetchSlots {
		releasable[s] = false
	}
	for _, fb := range p.feeds {
		releasable[fb.slot] = false
	}
	p.release = make([][]int32, len(p.steps))
	for s := 0; s < p.nslots; s++ {
		if producer[s] >= 0 && releasable[s] {
			p.release[last[s]] = append(p.release[last[s]], int32(s))
		}
	}

	// Completion-order schedule for the parallel executor: count each slot's
	// distinct reading steps and record, per step, which recyclable slots it
	// decrements on completion. A step reading a slot through several inputs
	// decrements it once. Recyclable slots nobody reads are decremented (and
	// so released) by their own producer.
	p.readers0 = make([]int32, p.nslots)
	p.stepRelease = make([][]int32, len(p.steps))
	for i := range p.steps {
		st := &p.steps[i]
		ins := p.insSlots[st.insOff : st.insOff+st.insLen]
		for k, s := range ins {
			if producer[s] < 0 || !releasable[s] {
				continue
			}
			dup := false
			for _, t := range ins[:k] {
				if t == s {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			p.readers0[s]++
			p.stepRelease[i] = append(p.stepRelease[i], s)
		}
	}
	for s := 0; s < p.nslots; s++ {
		if producer[s] >= 0 && releasable[s] && p.readers0[s] == 0 {
			p.readers0[s] = 1
			p.stepRelease[producer[s]] = append(p.stepRelease[producer[s]], int32(s))
		}
	}
}

// runPlan executes a compiled plan under the session's parallelism setting,
// merging evaluation statistics into the session — also on the error path,
// so failed runs never undercount profiling tallies.
func (s *Session) runPlan(p *Plan, feeds Feeds) ([]*tensor.Tensor, error) {
	if p == nil {
		return nil, fmt.Errorf("graph: nil execution plan")
	}
	if p.g != s.g {
		return nil, fmt.Errorf("graph: plan belongs to a different graph")
	}
	s.runCount.Add(1)

	sc := p.scratch.Get().(*planScratch)
	defer func() {
		clear(sc.values)
		clear(sc.ins)
		p.scratch.Put(sc)
	}()

	// Bind feeds. A feed for a closure node the plan did not compile as fed
	// would silently change semantics, so it is rejected; feeds for nodes
	// outside the closure are ignored, as in the recursive evaluator.
	bound := 0
	for n, v := range feeds {
		if slot, ok := p.feedSlot[n]; ok {
			sc.values[slot] = v
			bound++
		} else if _, inClosure := p.slotOf[n]; inClosure {
			return nil, fmt.Errorf("graph: plan was compiled without a feed for %v; include it in the compile feed set", n)
		}
	}
	if bound != len(p.feeds) {
		for _, fb := range p.feeds {
			if _, ok := feeds[fb.node]; !ok {
				return nil, fmt.Errorf("graph: compiled plan expects a feed for %v", fb.node)
			}
		}
	}

	devCounts := make([]int64, len(p.statDevices))
	var arena *tensor.Arena
	if s.bufferReuse.Load() {
		arena = s.arena
	}
	// Unless SetParallelism overrides it, a plan with the slack runs parallel.
	var evaluated int64
	var runErr error
	loops := int(s.parallelism.Load())
	if pc := p.cost.Load(); loops == 0 && pc != nil && pc.slack >= planParallelThreshold {
		loops = tensor.KernelParallelism()
	}
	if loops > 1 && len(p.steps) > 1 {
		s.parallelRuns.Add(1)
		evaluated, runErr = p.execParallel(sc, devCounts, loops, s.deviceLimitsRef(), arena)
	} else {
		evaluated, runErr = p.execSerial(sc, devCounts, arena)
	}

	s.nodesEvaluated.Add(evaluated)
	s.mu.Lock()
	for i, c := range devCounts {
		if c != 0 {
			s.deviceNodeCount[p.statDevices[i]] += int(c)
		}
	}
	s.mu.Unlock()

	if runErr != nil {
		return nil, runErr
	}
	out := make([]*tensor.Tensor, len(p.fetchSlots))
	for i, slot := range p.fetchSlots {
		out[i] = sc.values[slot]
	}
	return out, nil
}

// execSerial runs the step list in compiled (recursive-equivalent) order.
// With a non-nil arena, intermediates scheduled by the liveness analysis are
// recycled as soon as their last consumer has run. The plan's first complete
// run also costs its steps and records the plan's slack.
func (p *Plan) execSerial(sc *planScratch, devCounts []int64, arena *tensor.Arena) (int64, error) {
	ctx := &RunCtx{arena: arena}
	values := sc.values
	var cost []int64
	if p.cost.Load() == nil {
		cost = make([]int64, len(p.steps))
	}
	var evaluated int64
	for i := range p.steps {
		st := &p.steps[i]
		ins := sc.ins[st.insOff : st.insOff+st.insLen]
		for k, slot := range p.insSlots[st.insOff : st.insOff+st.insLen] {
			ins[k] = values[slot]
		}
		v, err := st.run(ctx, ins)
		if err != nil {
			return evaluated, fmt.Errorf("graph: evaluating %v: %w", st.node, err)
		}
		if cost != nil && st.eval == nil {
			cost[i] = int64(madds(st.node.op, ins, v))
		}
		evaluated += st.evals()
		devCounts[st.statDev] += st.evals()
		values[st.out] = v
		if arena != nil {
			for _, slot := range p.release[i] {
				if t := values[slot]; t != nil {
					values[slot] = nil
					arena.Put(t)
				}
			}
		}
	}
	if cost != nil {
		p.cost.Store(p.costOf(cost))
	}
	return evaluated, nil
}

// planCost is what a plan's first serial run measured, in multiply-adds.
type planCost struct {
	slack int64   // total minus the costliest chain: work a second loop can take
	rank  []int64 // per step: its costliest chain to the end, claimed first
}

// costOf turns step costs into ranks; successor edges point forward in step
// order, so one backward pass finds every chain.
func (p *Plan) costOf(cost []int64) *planCost {
	var total, critical int64
	for i := len(cost) - 1; i >= 0; i-- {
		total += cost[i]
		var next int64
		for _, s := range p.succ[i] {
			next = max(next, cost[s])
		}
		cost[i] += next
		critical = max(critical, cost[i])
	}
	return &planCost{slack: total - critical, rank: cost}
}

// parRun is the state the scheduler loops of one parallel run share. It lives
// in plan scratch, so a run allocates none of it.
type parRun struct {
	p    *Plan
	sc   *planScratch
	loop func(int) // runLoop, bound once
	ctx  RunCtx
	rank []int64 // nil until the plan is costed

	mu            sync.Mutex
	ready         []int32 // steps whose predecessors have all finished
	busy, streams []int32 // per named device: steps in flight, limit
	left          int     // steps not yet finished
	evaluated     int64
	devCounts     []int64
	err           error
	wake          chan struct{} // a token per event a waiting loop may act on
}

// execParallel runs the plan on loops scheduler loops, the chunks of one fork
// on the kernel pool, so a run starts no goroutine. Indegree counters ready
// the successors, a named device runs at most its stream limit of steps at
// once, and stateful steps are chained by compile-time edges, so results
// match serial execution bit for bit. Intermediates are recycled in
// completion order (DESIGN.md §5.8): the step whose decrement of a slot's
// remaining readers reaches zero returns its tensor to the arena.
func (p *Plan) execParallel(sc *planScratch, devCounts []int64, loops int, limits map[string]int, arena *tensor.Arena) (int64, error) {
	loops = min(loops, len(p.steps))
	r := &sc.par
	copy(sc.indeg, p.indeg0)
	copy(sc.readers, p.readers0)
	r.ready = r.ready[:0]
	for i, d := range p.indeg0 {
		if d == 0 {
			r.ready = append(r.ready, int32(i))
		}
	}
	for d, name := range p.schedDevices {
		r.busy[d], r.streams[d] = 0, int32(max(1, limits[name]))
	}
	if pc := p.cost.Load(); pc != nil {
		r.rank = pc.rank
	}
	r.ctx.arena, r.devCounts = arena, devCounts
	r.left, r.evaluated, r.err = len(p.steps), 0, nil
	if cap(r.wake) < loops { // a token per loop: a full channel wakes every waiter
		r.wake = make(chan struct{}, loops)
	}
	tensor.ParallelFor(loops, r.loop)
	r.ctx.arena, r.devCounts = nil, nil
	return r.evaluated, r.err
}

var errStepPanicked = errors.New("graph: a plan step panicked")

// runLoop is one scheduler loop. Should a step panic, the deferred stop ends
// the run for the other loops, and the pool re-raises the panic on the caller.
func (r *parRun) runLoop(int) {
	defer r.stop(errStepPanicked)
	for i := r.claim(); i >= 0; i = r.claim() {
		r.step(i)
	}
}

// claim takes the ready step of highest rank whose device has a free stream,
// waiting while there is none; -1 means the run is over.
func (r *parRun) claim() int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.left > 0 && r.err == nil {
		best := -1
		for k, i := range r.ready {
			if d := r.p.steps[i].schedDev; d >= 0 && r.busy[d] >= r.streams[d] {
				continue
			}
			if best < 0 || r.rank != nil && r.rank[i] >= r.rank[r.ready[best]] {
				best = k
			}
		}
		if best >= 0 {
			i := r.ready[best]
			if d := r.p.steps[i].schedDev; d >= 0 {
				r.busy[d]++
			}
			r.ready = append(r.ready[:best], r.ready[best+1:]...)
			return i
		}
		r.mu.Unlock()
		tensor.WaitOrHelp(r.wake)
		r.mu.Lock()
	}
	return -1
}

// step runs step i, publishes its value, recycles and readies what it frees.
func (r *parRun) step(i int32) {
	p, sc := r.p, r.sc
	st := &p.steps[i]
	ins := sc.ins[st.insOff : st.insOff+st.insLen]
	for k, slot := range p.insSlots[st.insOff : st.insOff+st.insLen] {
		ins[k] = sc.values[slot]
	}
	v, err := st.run(&r.ctx, ins)
	if err != nil {
		r.stop(fmt.Errorf("graph: evaluating %v: %w", st.node, err))
		return
	}
	wakes := -1 // this loop claims one of the steps it frees
	r.mu.Lock()
	if d := st.schedDev; d >= 0 {
		r.busy[d]--
		wakes++
	}
	sc.values[st.out] = v
	r.evaluated += st.evals()
	r.devCounts[st.statDev] += st.evals()
	for _, s := range p.stepRelease[i] {
		if sc.readers[s]--; sc.readers[s] == 0 && r.ctx.arena != nil && sc.values[s] != nil {
			r.ctx.arena.Put(sc.values[s])
			sc.values[s] = nil
		}
	}
	for _, s := range p.succ[i] {
		if sc.indeg[s]--; sc.indeg[s] == 0 {
			r.ready = append(r.ready, s)
			wakes++
		}
	}
	if r.left--; r.left == 0 {
		wakes = cap(r.wake)
	}
	r.mu.Unlock()
	r.signal(wakes)
}

// stop ends an unfinished run with err (the first error wins) and wakes
// every loop.
func (r *parRun) stop(err error) {
	r.mu.Lock()
	if r.err == nil && r.left > 0 {
		r.err = err
	}
	r.mu.Unlock()
	r.signal(cap(r.wake))
}

// signal sends up to n wake tokens; a full channel already wakes every waiter.
func (r *parRun) signal(n int) {
	for ; n > 0; n-- {
		select {
		case r.wake <- struct{}{}:
		default:
			return
		}
	}
}
