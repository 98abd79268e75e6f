package sim

import (
	"femtocr/internal/access"
	"femtocr/internal/belief"
	"femtocr/internal/netmodel"
	"femtocr/internal/rng"
	"femtocr/internal/sensing"
	"femtocr/internal/spectrum"
)

// Frontend bundles the physical- and MAC-layer front half of one slot —
// primary-user occupancy, spectrum sensing, posterior fusion, and the
// collision-bounded access decision — shared by the rate-based engine here
// and the packet-level engine in internal/packetsim.
type Frontend struct {
	net     *netmodel.Network
	policy  access.Policy
	tracker *access.CollisionTracker

	specSim      *spectrum.Simulator
	senseStream  *rng.Stream
	accessStream *rng.Stream
	assignStream *rng.Stream
	sensorPolicy sensing.AssignmentPolicy
	beliefs      *belief.Tracker
	estimators   []*sensing.UtilizationEstimator

	// Per-slot scratch, sized once at construction so the steady-state Step
	// is allocation-free. The SlotState handed out aliases these buffers and
	// is valid only until the next Step.
	priors     []float64
	posteriors []float64
	fusers     []sensing.Fuser
	assignment []int
	perm       []int // the stratified policy's channel order
	accessed   []int
	accessedPA []float64
	decision   access.SlotDecision
	state      SlotState
}

// NewFrontend builds the front half from a validated network and the run's
// root stream. sensorPolicy zero defaults to round-robin.
func NewFrontend(net *netmodel.Network, root *rng.Stream, sensorPolicy sensing.AssignmentPolicy) (*Frontend, error) {
	pol, err := access.NewPolicy(net.Gamma)
	if err != nil {
		return nil, err
	}
	if sensorPolicy == 0 {
		sensorPolicy = sensing.RoundRobin
	}
	m := net.Band.M()
	return &Frontend{
		net:          net,
		policy:       pol,
		tracker:      access.NewCollisionTracker(m),
		specSim:      spectrum.NewSimulator(net.Band, root.Split("occupancy")),
		senseStream:  root.Split("sensing"),
		accessStream: root.Split("access"),
		assignStream: root.Split("assignment"),
		sensorPolicy: sensorPolicy,
		priors:       make([]float64, m),
		posteriors:   make([]float64, m),
		fusers:       make([]sensing.Fuser, m),
		assignment:   make([]int, net.K()),
		perm:         make([]int, m),
		accessed:     make([]int, 0, m),
		accessedPA:   make([]float64, 0, m),
	}, nil
}

// Prior selects the fusion prior each slot's sensing starts from.
type Prior int

const (
	// StationaryPrior is the paper's eq. (2): every channel's known
	// stationary utilization eta.
	StationaryPrior Prior = iota
	// EstimatedPrior learns each channel's utilization online from the
	// FBSs' own noisy sensing reports (bias-corrected method of moments)
	// instead of assuming eta is known — the realistic deployment where
	// the primary network publishes nothing. Before enough observations
	// accumulate the prior falls back to the uninformative 1/2 (extension).
	EstimatedPrior
	// BeliefPrior is a Bayesian filter that carries the previous slot's
	// posterior through the Markov kernel (extension; see internal/belief).
	BeliefPrior
)

// setPrior switches the fusion prior from the stationary default. Call
// before the first Step.
func (f *Frontend) setPrior(p Prior) error {
	switch p {
	case EstimatedPrior:
		f.estimators = make([]*sensing.UtilizationEstimator, f.net.Band.M())
		for ch := range f.estimators {
			est, err := sensing.NewUtilizationEstimator(f.net.Detector)
			if err != nil {
				return err
			}
			f.estimators[ch] = est
		}
	case BeliefPrior:
		f.beliefs = belief.NewTracker(f.net.Band)
	}
	return nil
}

// SlotState is the front half's output for one slot. Instances returned by
// Step alias the frontend's reusable buffers: consume them within the slot,
// before the next Step overwrites them.
type SlotState struct {
	// Truth is the realized occupancy of the licensed channels.
	Truth spectrum.Occupancy
	// Decision is the per-channel access outcome.
	Decision access.SlotDecision
	// Accessed is A(t), the accessed channel ids (1-based).
	Accessed []int
	// AccessedPA holds the availability posterior of each accessed channel,
	// parallel to Accessed.
	AccessedPA []float64
}

// Step advances occupancy one slot, senses every channel (every FBS senses
// all M channels, each user one), fuses the results, and draws the access
// decision. The returned SlotState and every slice it holds alias the
// frontend's reusable buffers and are valid only until the next Step.
func (f *Frontend) Step(slot int) (*SlotState, error) {
	net := f.net
	m := net.Band.M()
	truth := f.specSim.StepInPlace()

	if f.beliefs != nil {
		f.beliefs.Predict()
	}
	priors := f.priors
	posteriors := f.posteriors
	fusers := f.fusers
	eta := net.Band.Utilization()
	for ch := 1; ch <= m; ch++ {
		prior := eta
		switch {
		case f.beliefs != nil:
			var err error
			prior, err = f.beliefs.PriorBusy(ch)
			if err != nil {
				return nil, err
			}
		case f.estimators != nil:
			// Learned prior once enough reports exist; 1/2 until then.
			prior = 0.5
			if est := f.estimators[ch-1]; est.Observations() >= 20 {
				var err error
				prior, err = est.Estimate()
				if err != nil {
					return nil, err
				}
				if prior >= 1 {
					prior = 1 - 1e-9 // keep the fusion prior valid
				}
			}
		}
		priors[ch-1] = prior
		if err := fusers[ch-1].Reset(prior); err != nil {
			return nil, err
		}
	}
	// FBS sensing: every FBS has M antennas and senses every channel,
	// FBS i starting from channel i+1.
	for i := 0; i < net.NumFBS; i++ {
		for a := 0; a < m; a++ {
			ch := (a+i)%m + 1
			obs := net.Detector.Sense(truth[ch-1], f.senseStream)
			fusers[ch-1].Update(obs)
			if f.estimators != nil {
				f.estimators[ch-1].Record(obs)
			}
		}
	}
	assignment := f.assignment
	if err := sensing.AssignInto(assignment, f.perm, f.sensorPolicy, slot, f.assignStream); err != nil {
		return nil, err
	}
	for _, ch := range assignment {
		fusers[ch-1].Update(net.Detector.Sense(truth[ch-1], f.senseStream))
	}
	for ch := 1; ch <= m; ch++ {
		posteriors[ch-1] = fusers[ch-1].Posterior()
		if f.beliefs != nil {
			if err := f.beliefs.Observe(ch, posteriors[ch-1]); err != nil {
				return nil, err
			}
		}
	}

	f.policy.DecideInto(priors, posteriors, f.accessStream, &f.decision)
	f.tracker.Record(f.decision, truth)
	f.accessed = f.decision.AppendAvailable(f.accessed[:0])
	accessed := f.accessed
	f.accessedPA = f.accessedPA[:0]
	for _, ch := range accessed {
		f.accessedPA = append(f.accessedPA, f.decision.Channels[ch-1].Posterior)
	}
	f.state = SlotState{
		Truth:      truth,
		Decision:   f.decision,
		Accessed:   accessed,
		AccessedPA: f.accessedPA,
	}
	return &f.state, nil
}

// CollisionRate returns the worst realized per-channel conditional collision
// rate — collisions divided by truly-busy slots, the quantity eq. (6) bounds
// by gamma.
func (f *Frontend) CollisionRate() float64 { return f.tracker.MaxConditionalRate() }
