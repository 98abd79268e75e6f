package core

// SolverSession carries warm-start state across the consecutive per-slot
// solves of one cell: EquilibriumSolver.SolveWarmInto brackets its outer
// bisection around the previous slot's common price. Channel occupancy is
// a two-state Markov chain (internal/markov), so consecutive slots'
// problems are strongly correlated and that price is an excellent seed;
// the session owns the carried state so the solver itself stays stateless
// and shareable.
//
// A session belongs to exactly one engine (one cell, one goroutine): it is
// NOT safe for concurrent use. The sharded runner gets per-shard sessions
// for free because every shard constructs its own engine.
//
// Lifetime and re-cold-start triggers: the carried state is keyed to the
// instance shape (user count, FBS count, and the user->FBS membership).
// A solve against a differently-shaped instance silently drops the carried
// state and cold-starts; so does the solver's bracket-expansion guard (a
// warm bracket that runs away restarts cold in the same call). Only the
// expected-channel vector G and the qualities W may drift between warm
// solves — which is exactly the Markov temporal coherence the warm start
// exploits.
//
// The zero value is a session with no carried state, like the one
// NewSolverSession returns.
type SolverSession struct {
	// Shape signature of the instance the carried state belongs to.
	users, fbss int
	fbsSig      uint64

	// The previous contended solve's outer common price.
	l0     float64
	haveL0 bool

	stats SessionStats
}

// SessionStats counts the solves recorded through a session. An iteration
// is one outer demand probe of the equilibrium solver.
type SessionStats struct {
	// Solves is the total number of solves recorded.
	Solves int
	// WarmSolves counts solves seeded from the carried price.
	WarmSolves int
	// ColdStarts counts the other solves: the first solve, any solve after
	// a shape change, and every trivial solve.
	ColdStarts int
	// Restarts counts bracket-expansion guard trips: warm brackets that ran
	// away and re-ran cold.
	Restarts int
	// TrivialSolves counts trivially-feasible instances, solved at zero
	// prices.
	TrivialSolves int
	// TotalIters sums the iterations of every contended solve, including a
	// restarted warm attempt's. A trivial solve records none, even when it
	// bisected a warm bracket before its floor probe found it slack.
	TotalIters int64
	// MaxIters is the largest per-solve iteration count observed.
	MaxIters int
}

// Merge adds other's counters into s (for folding per-shard sessions).
func (s *SessionStats) Merge(other *SessionStats) {
	s.Solves += other.Solves
	s.WarmSolves += other.WarmSolves
	s.ColdStarts += other.ColdStarts
	s.Restarts += other.Restarts
	s.TrivialSolves += other.TrivialSolves
	s.TotalIters += other.TotalIters
	if other.MaxIters > s.MaxIters {
		s.MaxIters = other.MaxIters
	}
}

// NewSolverSession returns a session with no carried state: its first
// solve cold-starts.
func NewSolverSession() *SolverSession {
	return &SolverSession{}
}

// Stats returns a snapshot of the recorded counters.
func (s *SolverSession) Stats() SessionStats { return s.stats }

// fbsSignature hashes the user->FBS membership (FNV-1a over the indices),
// the cheap shape fingerprint behind the re-cold-start trigger.
func fbsSignature(fbs []int) uint64 {
	h := uint64(1469598103934665603)
	for _, f := range fbs {
		h ^= uint64(f)
		h *= 1099511628211
	}
	return h
}

// observe checks the instance shape against the carried state, dropping the
// state on a mismatch.
//
//femtovet:borrows in
func (s *SolverSession) observe(in *Instance) {
	k, n := in.K(), in.N()
	sig := fbsSignature(in.FBS)
	if k != s.users || n != s.fbss || sig != s.fbsSig {
		s.users, s.fbss, s.fbsSig = k, n, sig
		s.haveL0 = false
	}
}

// note records one solve's iteration count.
func (s *SolverSession) note(iters int, warm, trivial bool) {
	s.stats.Solves++
	if warm {
		s.stats.WarmSolves++
	} else {
		s.stats.ColdStarts++
	}
	if trivial {
		s.stats.TrivialSolves++
	}
	s.stats.TotalIters += int64(iters)
	if iters > s.stats.MaxIters {
		s.stats.MaxIters = iters
	}
}
