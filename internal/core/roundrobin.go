package core

// RoundRobin is an extension baseline below both of the paper's heuristics:
// plain TDMA. Each slot, every FBS grants its whole band to the next of its
// users in rotation, and the MBS grants the common channel to the next user
// overall that its FBS did not pick. No channel-state information is used
// at all, which makes it the natural "no optimization" anchor for the
// comparisons.
//
// The scheduler is stateful (the rotation counter advances per SolveInto
// call) and not safe for concurrent use.
type RoundRobin struct {
	counter int
}

var _ Solver = (*RoundRobin)(nil)

// SolveInto grants whole slots in rotation, writing the allocation into a
// caller-owned one and advancing the rotation.
//
//femtovet:borrows in, alloc
func (r *RoundRobin) SolveInto(in *Instance, alloc *Allocation) error {
	if err := in.Validate(); err != nil {
		return err
	}
	k := in.K()
	alloc.resize(k)
	ws := getWorkspace()
	defer putWorkspace(ws)
	taken := growB(ws.alive, k)
	ws.alive = taken
	for j := range taken {
		taken[j] = false
	}
	byFBS := ws.groupByFBS(in)
	for i := 1; i <= in.N(); i++ {
		users := byFBS[i]
		if len(users) == 0 {
			continue
		}
		j := users[r.counter%len(users)]
		alloc.Rho1[j] = 1
		taken[j] = true
	}
	// The MBS serves the next not-yet-served user in global rotation.
	for off := 0; off < k; off++ {
		j := (r.counter + off) % k
		if !taken[j] {
			alloc.MBS[j] = true
			alloc.Rho0[j] = 1
			break
		}
	}
	r.counter++
	return nil
}
