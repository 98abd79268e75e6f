package core

import (
	"fmt"
	"math"
	"sync"
)

// solveWorkspace holds every scratch buffer one per-slot solve needs, so the
// steady-state hot path — one solve per slot per engine, thousands of slots
// per run — reuses the same memory instead of rebuilding ~15 slices each
// call. Workspaces are pooled rather than stored on the solver structs:
// solver values stay stateless (and therefore safe to share across engines
// and goroutines), while a Get/Put pair per solve costs nanoseconds and is
// race-free by construction.
//
// Ownership rule: a workspace is held for the duration of exactly one
// SolveInto/SolveWarmInto/AllocateInto call and released before returning.
// Nothing that escapes to the caller (the returned Allocation, reports,
// traces) may alias workspace memory.
type solveWorkspace struct {
	// Per-user water-filling views and the cached log(W_j) terms shared by
	// every branch-value and objective evaluation of the solve. wr0/wr1
	// hoist the w/r quotient of each view (zero where r <= 0, which rhoAtWR
	// never reads) so the bisection probes skip one division per call.
	u0, u1   []waterfillUser
	logW     []float64
	wr0, wr1 []float64
	bl0, bl1 []float64 // zero-share branch values ps*logW + (1-ps)*logW

	// Gathered member columns for one FBS's inner bisection (see
	// equilibriumFBS): the demand probes of a bisection walk these
	// contiguous copies instead of chasing member indices through the
	// per-user columns above. gV0 holds each member's MBS branch value at
	// the current common price; gLo/gHi accumulate each member's window
	// for the window memo. gSt is each member's settlement state over the
	// bracket (eqOpen, eqKeep, eqDefect; see innerExit), and gBLo, gBHi
	// and gBP its FBS branch value at the bracket's ends and at the
	// latest probe, NaN where not computed.
	gU                   []waterfillUser
	gLogW, gWR, gBL, gV0 []float64
	gLo, gHi             []float64
	gSt                  []int8
	gBLo, gBHi, gBP      []float64

	// User index lists grouped by serving FBS (index 0 unused).
	byFBS [][]int

	// Dual-subgradient state, sized nRes = N+1.
	scale, sumPS, sumWR []float64
	lambda, next, sums  []float64

	// Water-filling scratch of fillBand (never nested): the gathered user
	// indices plus the flat effective-user columns waterfillColumns
	// bisects over.
	wfIdx             []int
	wfRho             []float64
	wfPS, wfWR, wfCap []float64

	// Greedy channel-allocation scratch (see greedy.go). qAlloc doubles as
	// the brute-force solver's enumeration allocation. gainRound tags each
	// cached candidate gain in gains with the allocation round it was
	// computed in, so take() can reuse same-round gains exactly.
	alive     []bool
	gains     []float64
	gainRound []int
	trial     []float64
	heap      []lazyEntry
	qAlloc    Allocation
	qInstance Instance

	// The greedy's pair arena (see greedyRun.keep): pair idx's slot is
	// [idx*K, (idx+1)*K) of pairMBS, pairRho0 and pairRho1, and holds the
	// allocation of its latest Q evaluation.
	pairMBS            []bool
	pairRho0, pairRho1 []float64

	// Per-FBS equilibrium memo (see exact.go solveWS): open-addressed
	// cache of (fbs, lambda_0, G_i) -> association mask,
	// epoch-tagged so invalidation on a new base instance is O(1). The
	// greedy allocator holds one epoch across all Q evaluations of an
	// AllocateInto call; the pooled solver entry points bump the epoch per
	// solve so a recycled workspace can never leak another instance's
	// equilibria. memoLive is set by bumpEqEpoch and cleared by
	// putWorkspace: only the equilibrium solves and the greedy allocator
	// hold an epoch, so the dual, brute-force and heuristic solves, which
	// never bump, keep plain computations on a pooled workspace that still
	// carries an older epoch.
	eqKeys   []memoKey
	eqVals   []uint64 // bit b set = byFBS member b prefers the MBS
	eqEpoch  uint32
	memoLive bool

	// Water-fill memo, the same open-addressed, epoch-tagged pattern (see
	// dual.go fillBand): fillKeys[s] keys one fill of the current epoch by
	// its resource and effective member set, fillOff[s] locates its shares
	// in the fillShares arena, which bumpEqEpoch empties, and fillLam[s]
	// holds the fill's water-filling price.
	fillKeys   []memoKey
	fillOff    []int32
	fillLam    []float64
	fillShares []float64

	// fillPrice[i] is the water-filling price of resource i's latest fill
	// (0 the common channel, 1..N the FBS bands), which the association
	// polish reads as its dual certificate (see polishAssociation). Sized
	// by prepareUsers.
	fillPrice []float64

	// eqWide carries the choices of members 64 and up of the last
	// equilibriumFBS call, which its uint64 mask cannot hold (see
	// prefersMBS).
	eqWide []bool

	// Window memo, the second level behind eqKeys (see equilibriumFBS):
	// eqLast[i] is FBS i's last computed inner result under the current
	// epoch, and eqWin[j] the window of MBS branch values of user j that
	// reproduces its FBS's eqLast. Sized by prepareEquilibrium and tagged
	// with the same epoch, so bumpEqEpoch invalidates both levels.
	eqLast []eqLastEntry // indexed by FBS 1..N (index 0 unused)
	eqWin  []eqWindow    // indexed by user

	// Outer-price seed of the session-less equilibrium solves on this
	// workspace (see exact.go solveWS). An unseeded solve records its
	// clearing common price in eqL0 (0 when uncontended); while eqSeeded is
	// set, solves bracket their outer bisection around eqL0 instead and
	// leave it untouched. The greedy allocator seeds once per AllocateInto from
	// its base Q(∅) solve; putWorkspace clears the flag, so a pooled
	// workspace is never seeded.
	eqL0     float64
	eqSeeded bool

	// prepEpoch is the memo epoch whose base instance the per-user views,
	// the member lists and the outer bound bracket were prepared for (see
	// prepareEquilibrium); 0 when none. prepareUsers and bumpEqEpoch's
	// wraparound flush clear it.
	prepEpoch uint32

	// The outer bound bracket of the prepared instance (see solveWS):
	// boundOver is the largest probed common price whose log-free demand
	// bound exceeded the budget, boundFit the smallest whose bound did not.
	// outerOver and outerFit count the probes each end decided without
	// the bound's sum.
	boundOver, boundFit float64
	outerOver, outerFit int

	// polishRho0/polishRho1 snapshot an allocation's shares so a rejected
	// association flip restores them instead of re-water-filling;
	// polishLoad sums each resource's shares for the polish's certificate.
	polishRho0, polishRho1 []float64
	polishLoad             []float64

	// polishKeys[j] and polishVals[j] hold user j's summands of the latest
	// polishGap under a live epoch, keyed by every input they read that may
	// change within it (see polishKey).
	polishKeys []polishKey
	polishVals []polishTerms
}

// polishKey is the exact key of one user's polishGap summands. Within a
// memo epoch only G changes, so the user's views, log W and quotients are
// fixed but for its band view, which reads G_i; the summands then read
// only its association, its share on the chosen resource, the two prices
// it faces, λ_0 and λ_i, and G_i. The key holds all five bit for bit.
type polishKey struct {
	rho, l0, li, g uint64 // math.Float64bits of the share, λ_0, λ_i and G_i
	epoch          uint32
	mbs            bool
}

// polishTerms is one user's summands of polishGap: its objective term t,
// its gap term d, its magnitude a and its branch-error bound.
type polishTerms struct{ t, d, a, branch float64 }

// memoKey is the exact key of one entry of the workspace's open-addressed
// memo tables, tagged with the epoch that wrote it: an entry is live only
// while its epoch is the workspace's, and a lookup hits only on a key equal
// in every field, never on a hash alone.
type memoKey struct {
	// Equilibrium memo: math.Float64bits of lambda_0 and of G_i. Fill
	// memo: the effective member set as a user bitmask, and
	// math.Float64bits of G_i (0 for the common channel).
	a, b  uint64
	fbs   int32 // FBS index; 0 is the common channel in the fill memo
	epoch uint32
}

// eqLastEntry is one FBS's last computed inner-bisection result: valid
// while epoch is the workspace's and the FBS's G_i has bits g.
type eqLastEntry struct {
	g     uint64 // math.Float64bits of G_i
	mask  uint64 // bit b set = byFBS member b prefers the MBS
	epoch uint32
}

// eqWindow is the half-open range (lo, hi] of a user's MBS branch value
// gV0 that decides every comparison of its FBS's last inner bisection the
// same way: hi is the smallest FBS branch value the user was compared
// against and kept (bv >= gV0), lo the largest one it defected from.
type eqWindow struct{ lo, hi float64 }

const (
	eqMemoSize   = 2048 // power of two
	fillMemoSize = 1024 // power of two
	memoProbe    = 8
	// fillArenaCap bounds the shares one epoch may memoize; past it the
	// fills of the epoch are computed, not stored.
	fillArenaCap = 1 << 15
)

// memoHash mixes a key splitmix-style into a table index.
func memoHash(k memoKey) uint64 {
	h := k.a ^ k.b*0x9E3779B97F4A7C15 ^ uint64(uint32(k.fbs))<<32
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// memoFind probes the window of k's home slot in an open-addressed table
// (length a power of two). It returns the slot of the live entry equal to k
// and true, or else the slot a put should take and false: the window's
// first stale slot, or the home slot when every slot of the window is live
// (the tables are caches, not maps). Within an epoch, puts only take a
// window's first stale slot and live slots stay live, so a live key never
// sits past a stale slot of its window and the probe can stop there.
func memoFind(keys []memoKey, k memoKey) (int, bool) {
	h := memoHash(k)
	m := uint64(len(keys) - 1)
	for p := uint64(0); p < memoProbe; p++ {
		s := int((h + p) & m)
		if e := keys[s]; e.epoch != k.epoch {
			return s, false
		} else if e == k {
			return s, true
		}
	}
	return int(h & m), false
}

// bumpEqEpoch starts a fresh memo epoch, invalidating every cached
// equilibrium and water-fill in O(1), and makes the memos live on this
// workspace until it returns to the pool. Callers must bump whenever the
// base instance behind the memoized solves changes (the greedy allocator
// once per AllocateInto, the pooled solver wrappers once per solve).
func (ws *solveWorkspace) bumpEqEpoch() {
	ws.memoLive = true
	ws.fillShares = ws.fillShares[:0]
	ws.eqEpoch++
	if ws.eqEpoch == 0 { // uint32 wraparound: flush so old tags cannot match
		for i := range ws.eqKeys {
			ws.eqKeys[i] = memoKey{}
		}
		for i := range ws.fillKeys {
			ws.fillKeys[i] = memoKey{}
		}
		for i := range ws.polishKeys {
			ws.polishKeys[i] = polishKey{}
		}
		last := ws.eqLast[:cap(ws.eqLast)]
		for i := range last {
			last[i] = eqLastEntry{}
		}
		ws.prepEpoch = 0
		ws.eqEpoch = 1
	}
}

// eqKey is the equilibrium memo's key for FBS fbs at common price l0 with
// expected channels g, under the current epoch.
func (ws *solveWorkspace) eqKey(fbs int, l0, g float64) memoKey {
	return memoKey{a: math.Float64bits(l0), b: math.Float64bits(g), fbs: int32(fbs), epoch: ws.eqEpoch}
}

// eqMemoGet looks up the memoized equilibrium choice mask of FBS fbs at
// common price l0 with expected channels g.
func (ws *solveWorkspace) eqMemoGet(fbs int, l0, g float64) (uint64, bool) {
	if len(ws.eqKeys) == 0 {
		return 0, false
	}
	s, hit := memoFind(ws.eqKeys, ws.eqKey(fbs, l0, g))
	if !hit {
		return 0, false
	}
	return ws.eqVals[s], true
}

// eqMemoPut records an equilibrium choice mask under the current epoch.
func (ws *solveWorkspace) eqMemoPut(fbs int, l0, g float64, mask uint64) {
	if cap(ws.eqKeys) < eqMemoSize {
		ws.eqKeys = make([]memoKey, eqMemoSize)
		ws.eqVals = make([]uint64, eqMemoSize)
	}
	k := ws.eqKey(fbs, l0, g)
	if s, hit := memoFind(ws.eqKeys, k); !hit {
		ws.eqKeys[s] = k
		ws.eqVals[s] = mask
	}
}

// fillGet returns the n memoized shares and the price of the fill keyed
// k, if live.
func (ws *solveWorkspace) fillGet(k memoKey, n int) ([]float64, float64, bool) {
	if len(ws.fillKeys) == 0 {
		return nil, 0, false
	}
	s, hit := memoFind(ws.fillKeys, k)
	if !hit {
		return nil, 0, false
	}
	off := int(ws.fillOff[s])
	return ws.fillShares[off : off+n], ws.fillLam[s], true
}

// fillPut memoizes the shares rho and the price lambda of the fill keyed k
// under the current epoch, unless the epoch's arena is full.
func (ws *solveWorkspace) fillPut(k memoKey, rho []float64, lambda float64) {
	if len(ws.fillShares)+len(rho) > fillArenaCap {
		return
	}
	if cap(ws.fillKeys) < fillMemoSize {
		ws.fillKeys = make([]memoKey, fillMemoSize)
		ws.fillOff = make([]int32, fillMemoSize)
		ws.fillLam = make([]float64, fillMemoSize)
	}
	if s, hit := memoFind(ws.fillKeys, k); !hit {
		ws.fillKeys[s] = k
		ws.fillOff[s] = int32(len(ws.fillShares))
		ws.fillLam[s] = lambda
		ws.fillShares = append(ws.fillShares, rho...)
	}
}

// workspacePool shares workspaces across all solver instances. sync.Pool
// keeps one workspace per P in steady state; a GC may drop pooled entries,
// after which the next solve regrows them once.
var workspacePool = sync.Pool{New: func() any { return new(solveWorkspace) }}

func getWorkspace() *solveWorkspace { return workspacePool.Get().(*solveWorkspace) }

// putWorkspace releases a workspace: the caller must not touch it again.
// Race builds check that (see pool_race.go).
func putWorkspace(ws *solveWorkspace) {
	ws.eqSeeded = false
	ws.memoLive = false
	recycle(ws)
}

// growF returns a float64 slice of length n, reusing buf's backing array
// when it is large enough. Contents are unspecified.
func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// growU is growF for waterfillUser slices.
func growU(buf []waterfillUser, n int) []waterfillUser {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]waterfillUser, n)
}

// growI is growF for int slices.
func growI(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// growI8 is growF for int8 slices.
func growI8(buf []int8, n int) []int8 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int8, n)
}

// growB is growF for bool slices.
func growB(buf []bool, n int) []bool {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]bool, n)
}

// prepareUsers fills the per-user views u0/u1 and the cached log(W) terms
// for one solve. The cached values are bit-identical to what the previous
// per-call math.Log computations produced: same function, same inputs.
func (ws *solveWorkspace) prepareUsers(in *Instance) {
	ws.prepEpoch = 0
	k := in.K()
	ws.u0 = growU(ws.u0, k)
	ws.u1 = growU(ws.u1, k)
	ws.logW = growF(ws.logW, k)
	ws.wr0 = growF(ws.wr0, k)
	ws.wr1 = growF(ws.wr1, k)
	ws.bl0 = growF(ws.bl0, k)
	ws.bl1 = growF(ws.bl1, k)
	ws.fillPrice = growF(ws.fillPrice, in.N()+1)
	for j := 0; j < k; j++ {
		ws.u0[j] = in.user0(j)
		ws.setBandView(in, j)
		lw := math.Log(in.W[j])
		ws.logW[j] = lw
		ws.wr0[j] = 0
		if r := ws.u0[j].r; r > 0 {
			ws.wr0[j] = in.W[j] / r
		}
		ws.bl0[j] = ws.u0[j].ps*lw + (1-ws.u0[j].ps)*lw
		ws.bl1[j] = ws.u1[j].ps*lw + (1-ws.u1[j].ps)*lw
	}
}

// setBandView fills user j's band view u1[j] and its quotient wr1[j], the
// only per-user columns that read G.
func (ws *solveWorkspace) setBandView(in *Instance, j int) {
	ws.u1[j] = in.user1(j)
	ws.wr1[j] = 0
	if r := ws.u1[j].r; r > 0 {
		ws.wr1[j] = in.W[j] / r
	}
}

// prepareEquilibrium readies the workspace for equilibriumFBS calls on in:
// the per-user views, the per-FBS member lists, the window memo's per-FBS
// and per-user slots, and an empty outer bound bracket. Regrown slots start
// zeroed (epoch 0, never live); reused ones keep their tags, which stay
// valid only within the epoch that wrote them.
//
// Within a live epoch only G changes (bumpEqEpoch), so once the epoch's
// instance is prepared a later call refreshes only what reads G: the band
// views u1 and their quotients wr1. Everything else — the logs, the common
// channel's views, the zero-share branch values (bl1 reads ps and log W
// only), the member lists and the bound bracket — is the same to the bit.
func (ws *solveWorkspace) prepareEquilibrium(in *Instance) {
	if ws.memoLive && ws.prepEpoch == ws.eqEpoch {
		for j := range ws.u1 {
			ws.setBandView(in, j)
		}
		return
	}
	ws.prepareUsers(in)
	ws.groupByFBS(in)
	n, k := in.N(), in.K()
	if cap(ws.eqLast) < n+1 {
		ws.eqLast = make([]eqLastEntry, n+1)
	}
	ws.eqLast = ws.eqLast[:n+1]
	if cap(ws.eqWin) < k {
		ws.eqWin = make([]eqWindow, k)
	}
	ws.eqWin = ws.eqWin[:k]
	ws.boundOver, ws.boundFit = 0, math.Inf(1)
	if ws.memoLive {
		ws.prepEpoch = ws.eqEpoch
	}
}

// groupByFBS rebuilds the per-FBS member lists, reusing the backing arrays.
func (ws *solveWorkspace) groupByFBS(in *Instance) [][]int {
	n := in.N()
	if cap(ws.byFBS) < n+1 {
		ws.byFBS = make([][]int, n+1)
	} else {
		ws.byFBS = ws.byFBS[:n+1]
	}
	for i := range ws.byFBS {
		ws.byFBS[i] = ws.byFBS[i][:0]
	}
	for j, f := range in.FBS {
		ws.byFBS[f] = append(ws.byFBS[f], j)
	}
	return ws.byFBS
}

// resize makes the allocation hold k users, reusing backing arrays and
// zeroing every entry.
func (a *Allocation) resize(k int) {
	a.MBS = growB(a.MBS, k)
	a.Rho0 = growF(a.Rho0, k)
	a.Rho1 = growF(a.Rho1, k)
	for j := 0; j < k; j++ {
		a.MBS[j] = false
		a.Rho0[j] = 0
		a.Rho1[j] = 0
	}
}

// feasibleCached is Allocation.Feasible on workspace scratch: the checks
// without a per-call slice allocation.
func feasibleCached(in *Instance, a *Allocation, ws *solveWorkspace, tol float64) error {
	k := in.K()
	if len(a.MBS) != k || len(a.Rho0) != k || len(a.Rho1) != k {
		return fmt.Errorf("%w: allocation sized for %d users, instance has %d", ErrBadInstance, len(a.MBS), k)
	}
	sum0 := 0.0
	ws.sums = growF(ws.sums, in.N())
	sumI := ws.sums
	for i := range sumI {
		sumI[i] = 0
	}
	for j := 0; j < k; j++ {
		if a.Rho0[j] < -tol || a.Rho1[j] < -tol {
			return fmt.Errorf("%w: negative share for user %d", ErrBadInstance, j)
		}
		if a.MBS[j] && a.Rho1[j] > tol {
			return fmt.Errorf("%w: user %d on MBS holds FBS share %v", ErrBadInstance, j, a.Rho1[j])
		}
		if !a.MBS[j] && a.Rho0[j] > tol {
			return fmt.Errorf("%w: user %d on FBS holds MBS share %v", ErrBadInstance, j, a.Rho0[j])
		}
		sum0 += a.Rho0[j]
		sumI[in.FBS[j]-1] += a.Rho1[j]
	}
	if sum0 > 1+tol {
		return fmt.Errorf("%w: common-channel shares sum to %v", ErrBadInstance, sum0)
	}
	for i, s := range sumI {
		if s > 1+tol {
			return fmt.Errorf("%w: FBS %d shares sum to %v", ErrBadInstance, i+1, s)
		}
	}
	return nil
}
