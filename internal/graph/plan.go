package graph

import (
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

	scratch sync.Pool
}

// Steps returns the number of compiled op evaluations per run.
func (p *Plan) Steps() int { return len(p.steps) }

// Slots returns the size of the per-run value array.
func (p *Plan) Slots() int { return p.nslots }

// planScratch is the reusable per-run buffer set.
type planScratch struct {
	values  []*tensor.Tensor
	ins     []*tensor.Tensor
	indeg   []int32
	readers []int32
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

	nslots, insTotal, nsteps := p.nslots, len(p.insSlots), len(p.steps)
	p.scratch.New = func() any {
		return &planScratch{
			values:  make([]*tensor.Tensor, nslots),
			ins:     make([]*tensor.Tensor, insTotal),
			indeg:   make([]int32, nsteps),
			readers: make([]int32, nslots),
		}
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
	var evaluated int64
	var runErr error
	if workers := int(s.parallelism.Load()); workers > 1 && len(p.steps) > 1 {
		evaluated, runErr = p.execParallel(sc, devCounts, workers, s.deviceLimitsRef(), arena)
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
// recycled as soon as their last consumer has run.
func (p *Plan) execSerial(sc *planScratch, devCounts []int64, arena *tensor.Arena) (int64, error) {
	ctx := &RunCtx{arena: arena}
	values := sc.values
	var evaluated int64
	for i := range p.steps {
		st := &p.steps[i]
		ins := sc.ins[st.insOff : st.insOff+st.insLen]
		for k, slot := range p.insSlots[st.insOff : st.insOff+st.insLen] {
			ins[k] = values[slot]
		}
		var v *tensor.Tensor
		var err error
		if st.eval != nil {
			v, err = st.eval(ctx, ins)
		} else {
			v, err = st.node.op.Eval(ctx, ins)
		}
		if err != nil {
			return evaluated, fmt.Errorf("graph: evaluating %v: %w", st.node, err)
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
	return evaluated, nil
}

// execParallel runs ready steps across a bounded worker pool using per-step
// indegree counters. Steps on the same named device serialize through that
// device's stream semaphore (default one stream); stateful steps are chained
// by compile-time edges, so results match serial execution bit-for-bit.
//
// With a non-nil arena, dead intermediates are recycled in completion order:
// after its Eval, each step atomically decrements the remaining-reader count
// of every recyclable slot it read (plus its own output slot when nobody
// reads it), and the worker whose decrement reaches zero returns the tensor
// to the arena. The atomic decrement orders each reader's Eval (which
// happens-before its decrement in program order) before the release, so no
// tensor is recycled while a consumer can still touch it; error or
// early-exit paths simply skip remaining releases, which is safe because the
// per-run counters live in plan scratch and are re-copied from readers0 on
// the next run.
func (p *Plan) execParallel(sc *planScratch, devCounts []int64, workers int, limits map[string]int, arena *tensor.Arena) (int64, error) {
	if workers > len(p.steps) {
		workers = len(p.steps)
	}
	indeg := sc.indeg
	copy(indeg, p.indeg0)
	values := sc.values
	var readers []int32
	if arena != nil {
		readers = sc.readers
		copy(readers, p.readers0)
	}

	sems := make([]chan struct{}, len(p.schedDevices))
	for i, name := range p.schedDevices {
		streams := 1
		if limits[name] > 0 {
			streams = limits[name]
		}
		sems[i] = make(chan struct{}, streams)
	}

	// ready is buffered to the full step count so completion-driven sends
	// never block; done closes on first error or when all steps finished.
	ready := make(chan int32, len(p.steps))
	done := make(chan struct{})
	var closeOnce sync.Once
	finish := func() { closeOnce.Do(func() { close(done) }) }

	remaining := int64(len(p.steps))
	var evaluated int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		finish()
	}

	for i := range p.steps {
		if p.indeg0[i] == 0 {
			ready <- int32(i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &RunCtx{arena: arena}
			for {
				var i int32
				select {
				case <-done:
					return
				case i = <-ready:
				}
				st := &p.steps[i]
				ins := sc.ins[st.insOff : st.insOff+st.insLen]
				for k, slot := range p.insSlots[st.insOff : st.insOff+st.insLen] {
					ins[k] = values[slot]
				}
				if st.schedDev >= 0 {
					select {
					case sems[st.schedDev] <- struct{}{}:
					case <-done:
						return
					}
				}
				var v *tensor.Tensor
				var err error
				if st.eval != nil {
					v, err = st.eval(ctx, ins)
				} else {
					v, err = st.node.op.Eval(ctx, ins)
				}
				if st.schedDev >= 0 {
					<-sems[st.schedDev]
				}
				if err != nil {
					fail(fmt.Errorf("graph: evaluating %v: %w", st.node, err))
					return
				}
				values[st.out] = v
				atomic.AddInt64(&evaluated, st.evals())
				atomic.AddInt64(&devCounts[st.statDev], st.evals())
				if arena != nil {
					for _, s := range p.stepRelease[i] {
						if atomic.AddInt32(&readers[s], -1) == 0 {
							if t := values[s]; t != nil {
								values[s] = nil
								arena.Put(t)
							}
						}
					}
				}
				for _, succ := range p.succ[i] {
					if atomic.AddInt32(&indeg[succ], -1) == 0 {
						ready <- succ
					}
				}
				if atomic.AddInt64(&remaining, -1) == 0 {
					finish()
					return
				}
			}
		}()
	}
	wg.Wait()
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	return atomic.LoadInt64(&evaluated), err
}
