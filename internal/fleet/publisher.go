package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/distexec"
	"rlgraph/internal/tensor"
)

// PublisherConfig tunes the weight pipeline and its regression guard.
type PublisherConfig struct {
	// GuardWindow is how long a freshly swapped version serves before the
	// guard judges it (default 100ms).
	GuardWindow time.Duration
	// GuardMinSamples is the minimum attempts a new version must have
	// served before the guard may roll it back; below it the verdict is
	// "not enough evidence" and the version stands (default 20).
	GuardMinSamples int
	// MaxErrRate: a new version whose error rate exceeds both this absolute
	// bound and twice the previous version's rate regresses (default 0.05).
	MaxErrRate float64
	// P99Factor: a new version whose p99 exceeds P99Factor times the
	// previous version's (when both have latency samples) regresses
	// (default 0 = latency guard off).
	P99Factor float64
	// Poll is a fallback re-check period in case a subscription
	// notification is lost; 0 disables polling (the coalescing
	// subscription alone is normally sufficient).
	Poll time.Duration
}

func (c PublisherConfig) withDefaults() PublisherConfig {
	if c.GuardWindow <= 0 {
		c.GuardWindow = 100 * time.Millisecond
	}
	if c.GuardMinSamples <= 0 {
		c.GuardMinSamples = 20
	}
	if c.MaxErrRate <= 0 {
		c.MaxErrRate = 0.05
	}
	return c
}

// Publisher is the copy-on-write weight pipeline: it subscribes to a
// distexec.ParameterServer, pulls version-stamped snapshots (Pull already
// deep-copies, so trainer and fleet never share tensors), rolls them across
// the fleet with SwapAll, then watches the new version's serving record for
// GuardWindow. A version that regresses — error rate or p99 materially
// worse than its predecessor's — is rolled back to the last good snapshot
// and blacklisted so a re-notification cannot re-apply it.
type Publisher struct {
	ps  *distexec.ParameterServer
	rt  *Router
	cfg PublisherConfig

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	ch       <-chan int64
	cancel   func()

	applied   atomic.Int64 // newest version ever swapped in (even if later rolled back)
	published atomic.Int64
	rollbacks atomic.Int64

	lastGoodV atomic.Int64

	// Publisher-goroutine-only state.
	lastGoodW map[string]*tensor.Tensor
	bad       map[int64]bool
}

// StartPublisher wires ps to rt and starts the pipeline. It synchronously
// installs the parameter server's current snapshot first (so the fleet
// starts bit-identical to the trainer's view and the guard has a baseline),
// then tracks pushes in the background. Stop with Close.
func StartPublisher(ps *distexec.ParameterServer, rt *Router, cfg PublisherConfig) (*Publisher, error) {
	p := &Publisher{
		ps:   ps,
		rt:   rt,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		bad:  make(map[int64]bool),
	}
	// Subscribe before the initial pull: a push landing between the two is
	// then guaranteed a pending notification (the channel coalesces to the
	// newest version), so no version can slip through the startup gap.
	p.ch, p.cancel = ps.Subscribe()
	w, v := ps.Pull()
	if len(w) > 0 {
		if err := rt.SwapAll(w, v); err != nil {
			p.cancel()
			return nil, err
		}
		p.lastGoodW = w
		p.lastGoodV.Store(v)
		p.applied.Store(v)
		p.published.Add(1)
	}
	p.wg.Add(1)
	go p.loop()
	return p, nil
}

func (p *Publisher) loop() {
	defer p.wg.Done()
	defer p.cancel()
	var poll <-chan time.Time
	if p.cfg.Poll > 0 {
		t := time.NewTicker(p.cfg.Poll)
		defer t.Stop()
		poll = t.C
	}
	for {
		select {
		case <-p.stop:
			return
		case v, ok := <-p.ch:
			if !ok {
				return
			}
			p.publish(v)
		case <-poll:
			p.publish(p.ps.Version())
		}
	}
}

// publish applies the newest snapshot if it is fresh, then runs the guard.
func (p *Publisher) publish(notified int64) {
	if notified <= p.applied.Load() || p.bad[notified] {
		return
	}
	w, v := p.ps.Pull() // newest wins; may be newer than the notification
	if v <= p.applied.Load() || p.bad[v] {
		return
	}
	baseline := p.rt.VersionStatsFor(p.lastGoodV.Load())
	if err := p.rt.SwapAll(w, v); err != nil {
		// The snapshot did not install (weight sink rejected it). Treat it
		// like a regression: restore the last good snapshot everywhere and
		// blacklist the version.
		p.bad[v] = true
		p.applied.Store(v)
		p.rollbacks.Add(1)
		if p.lastGoodW != nil {
			_ = p.rt.SwapAll(p.lastGoodW, p.lastGoodV.Load())
		}
		return
	}
	p.applied.Store(v)
	p.published.Add(1)

	// Let the new version serve, then judge it against its predecessor.
	select {
	case <-p.stop:
		return
	case <-time.After(p.cfg.GuardWindow):
	}
	st := p.rt.VersionStatsFor(v)
	if st.Attempts >= int64(p.cfg.GuardMinSamples) && p.regressed(st, baseline) {
		p.bad[v] = true
		p.rollbacks.Add(1)
		if p.lastGoodW != nil {
			_ = p.rt.SwapAll(p.lastGoodW, p.lastGoodV.Load())
		}
		return
	}
	p.lastGoodW = w
	p.lastGoodV.Store(v)
}

// regressed compares a new version's serving record to its predecessor's.
func (p *Publisher) regressed(new, base VersionStats) bool {
	if new.ErrRate() > p.cfg.MaxErrRate && new.ErrRate() > 2*base.ErrRate() {
		return true
	}
	if p.cfg.P99Factor > 0 && base.P99 > 0 && new.P99 > 0 &&
		float64(new.P99) > p.cfg.P99Factor*float64(base.P99) {
		return true
	}
	return false
}

// Applied returns the newest version ever swapped into the fleet.
func (p *Publisher) Applied() int64 { return p.applied.Load() }

// Published returns how many snapshots were rolled out.
func (p *Publisher) Published() int64 { return p.published.Load() }

// Rollbacks returns how many versions the guard rolled back.
func (p *Publisher) Rollbacks() int64 { return p.rollbacks.Load() }

// Close stops the pipeline. The fleet keeps serving its current weights.
func (p *Publisher) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}
