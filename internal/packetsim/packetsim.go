// Package packetsim is the packet-level counterpart of internal/sim: the
// same sensing/access front half (sim.Frontend) and the same allocation half
// (sim.Allocator: scheme, channel allocation, per-slot solve), but with
// explicit NAL-unit transmission queues, ARQ retransmissions, and
// deadline discards, per the paper's §III-E delivery discipline ("video
// packets are transmitted in the decreasing order of their significances,
// with retransmissions if necessary; overdue packets will be discarded").
//
// The rate-based engine in internal/sim credits expected quality increments
// directly; this engine moves bytes. The two agree on scheme ordering and
// track each other's quality closely, which the integration tests assert.
package packetsim

import (
	"errors"
	"fmt"

	"femtocr/internal/netmodel"
	"femtocr/internal/packet"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/sim"
	"femtocr/internal/video"
)

// ErrBadOptions is returned for invalid run options.
var ErrBadOptions = errors.New("packetsim: invalid options")

// mgsLayers is the number of MGS enhancement layers per frame in the
// synthesized encodings. Each GOP is encoded at most at its sequence's
// saturation rate; MGS truncation then adapts downward.
const mgsLayers = 3

// Options configures one packet-level run.
type Options struct {
	// Seed drives all randomness, as in sim.Options.
	Seed uint64
	// GOPs simulated per user. Default 20.
	GOPs int
	// Scheme selects the allocation scheme. Default sim.Proposed.
	Scheme sim.Scheme
	// AdaptiveRate re-encodes each user's next GOP at an EWMA of its
	// recently delivered throughput (with 25% headroom), instead of always
	// encoding at the saturation rate. Cuts overdue discards sharply while
	// keeping quality: the sender stops queueing enhancement data the
	// channel cannot carry.
	AdaptiveRate bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.GOPs == 0 {
		out.GOPs = 20
	}
	if out.Scheme == 0 {
		out.Scheme = sim.Proposed
	}
	return out
}

// Result aggregates one packet-level run.
type Result struct {
	// PerUserPSNR is each user's mean end-of-GOP reconstructed quality.
	PerUserPSNR []float64
	// MeanPSNR averages PerUserPSNR.
	MeanPSNR float64
	// DeliveredBytes is the total acknowledged payload.
	DeliveredBytes int
	// Retransmissions counts ARQ retransmissions across users.
	Retransmissions int
	// DroppedPackets counts overdue discards across users.
	DroppedPackets int
	// SentPackets counts transmissions (including retransmissions).
	SentPackets int
	// CollisionRate is the worst realized per-channel conditional collision
	// rate (collisions over truly-busy slots, the eq. (6) quantity).
	CollisionRate float64
	// GOPs is the number of completed GOPs per user.
	GOPs int
}

// Run simulates packet-level delivery for the network under the scheme.
func Run(net *netmodel.Network, opts Options) (*Result, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadOptions)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.GOPs < 1 {
		return nil, fmt.Errorf("%w: GOPs=%d", ErrBadOptions, opts.GOPs)
	}

	root := rng.New(opts.Seed)
	front, err := sim.NewFrontend(net, root, sensing.RoundRobin)
	if err != nil {
		return nil, err
	}
	stage, err := sim.NewAllocator(net, sim.Options{Scheme: opts.Scheme})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	e := &engine{
		net:        net,
		opts:       opts,
		front:      front,
		stage:      stage,
		fadeStream: root.Split("fading"),
	}
	if err := e.init(); err != nil {
		return nil, err
	}
	totalSlots := opts.GOPs * net.T
	for slot := 0; slot < totalSlots; slot++ {
		if err := e.step(slot); err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	return e.result(), nil
}

type engine struct {
	net  *netmodel.Network
	opts Options

	front      *sim.Frontend
	stage      *sim.Allocator
	fadeStream *rng.Stream

	queues    []*packet.Queue
	receivers []*packet.Receiver
	gops      []video.GOP // the (static) encoded GOP layout per user
	w         []float64   // the users' current qualities, refreshed per slot

	// Slot duration in seconds: GOP playout time divided by the deadline T.
	slotSeconds float64

	retrans int
	sent    int
	dBytes  int
	gopIdx  int

	// Rate adaptation state: delivered bytes in the current GOP and an EWMA
	// of per-GOP delivered rate (Mbps), per user.
	gopBytes []int
	ewmaRate []float64
}

func (e *engine) init() error {
	net := e.net
	k := net.K()
	e.queues = make([]*packet.Queue, k)
	e.receivers = make([]*packet.Receiver, k)
	e.gops = make([]video.GOP, k)
	e.w = make([]float64, k)

	for j, u := range net.Users {
		e.queues[j] = &packet.Queue{}
		e.receivers[j] = packet.NewReceiver(u.Seq)
		g, err := video.BuildGOP(u.Seq, net.GOPSize, mgsLayers, u.Seq.MaxRateMbps)
		if err != nil {
			return err
		}
		e.gops[j] = g
	}
	// Every user shares the slot clock; use the first sequence's timing.
	seq := net.Users[0].Seq
	e.slotSeconds = float64(net.GOPSize) / seq.FPS / float64(net.T)
	e.gopBytes = make([]int, k)
	e.ewmaRate = make([]float64, k)
	for j, u := range net.Users {
		// Start the EWMA at half the saturation rate: optimistic but
		// bounded, converging within a few GOPs.
		e.ewmaRate[j] = u.Seq.MaxRateMbps / 2
	}
	return nil
}

func (e *engine) step(slot int) error {
	net := e.net

	// GOP boundary: enqueue the next GOP with its delivery deadline.
	if slot%net.T == 0 {
		deadline := slot + net.T - 1
		for j := range e.queues {
			e.queues[j].DropOverdue(slot)
			if e.opts.AdaptiveRate && slot > 0 {
				if err := e.adaptRate(j); err != nil {
					return err
				}
			}
			if err := e.queues[j].EnqueueGOP(j, e.gopIdx, e.gops[j], deadline); err != nil {
				return err
			}
			e.receivers[j].StartGOP(e.gopIdx, e.gops[j])
		}
		e.gopIdx++
	}

	st, err := e.front.Step(slot)
	if err != nil {
		return err
	}

	// Allocate the slot (shared allocation half); W is the quality the user
	// would decode with what it has received so far.
	for j := range e.w {
		e.w[j] = e.receivers[j].CurrentPSNR()
	}
	sa, err := e.stage.Step(st, e.w)
	if err != nil {
		return err
	}
	alloc, assigned := sa.Alloc, sa.Assigned

	// Transmission + ACK phases: move bytes through each user's queue.
	for j := range e.w {
		var rateMbps float64
		var lost bool
		if alloc.MBS[j] {
			if alloc.Rho0[j] <= 0 {
				continue
			}
			rateMbps = alloc.Rho0[j] * net.Band.B0()
			lost = e.net.Users[j].MBSLink.Lost(e.fadeStream)
		} else {
			if alloc.Rho1[j] <= 0 {
				continue
			}
			idle := 0
			for _, ch := range assigned[net.Users[j].FBS-1] {
				if st.Truth.Idle(ch) {
					idle++
				}
			}
			if idle == 0 {
				continue
			}
			rateMbps = alloc.Rho1[j] * float64(idle) * net.Band.B1()
			lost = e.net.Users[j].FBSLink.Lost(e.fadeStream)
		}
		budget := int(rateMbps * 1e6 / 8 * e.slotSeconds)
		rep, delivered, err := packet.TransmitSlot(e.queues[j], budget, lost)
		if err != nil {
			return err
		}
		e.sent += rep.Sent
		e.retrans += rep.Retransmissions
		e.dBytes += rep.DeliveredBytes
		e.gopBytes[j] += rep.DeliveredBytes
		e.receivers[j].Accept(delivered)
	}

	// End of GOP: close out quality accounting.
	if (slot+1)%net.T == 0 {
		for j := range e.receivers {
			e.receivers[j].EndGOP()
		}
	}
	return nil
}

// adaptRate folds the finished GOP's delivered throughput into user j's
// EWMA and re-encodes the next GOP at 1.25x that estimate, clamped to
// [10%, 100%] of the sequence's saturation rate.
func (e *engine) adaptRate(j int) error {
	gopSeconds := e.slotSeconds * float64(e.net.T)
	measured := float64(e.gopBytes[j]) * 8 / 1e6 / gopSeconds
	e.gopBytes[j] = 0
	const alpha = 0.3
	e.ewmaRate[j] = (1-alpha)*e.ewmaRate[j] + alpha*measured

	seq := e.net.Users[j].Seq
	target := 1.25 * e.ewmaRate[j]
	if min := 0.1 * seq.MaxRateMbps; target < min {
		target = min
	}
	if target > seq.MaxRateMbps {
		target = seq.MaxRateMbps
	}
	g, err := video.BuildGOP(seq, e.net.GOPSize, mgsLayers, target)
	if err != nil {
		return err
	}
	e.gops[j] = g
	return nil
}

func (e *engine) result() *Result {
	k := e.net.K()
	res := &Result{
		PerUserPSNR:     make([]float64, k),
		Retransmissions: e.retrans,
		SentPackets:     e.sent,
		DeliveredBytes:  e.dBytes,
		CollisionRate:   e.front.CollisionRate(),
		GOPs:            e.receivers[0].CompletedGOPs(),
	}
	sum := 0.0
	for j, r := range e.receivers {
		res.PerUserPSNR[j] = r.MeanPSNR()
		sum += r.MeanPSNR()
		res.DroppedPackets += e.queues[j].Dropped()
	}
	res.MeanPSNR = sum / float64(k)
	return res
}
