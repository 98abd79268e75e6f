//go:build race

package core

// recycle returns a released workspace to the pool from a new goroutine
// that first rewrites every field and scratch buffer with its own value.
// Nothing orders that rewrite before what the releasing goroutine does
// next, so a workspace touched after putWorkspace is a DATA RACE on every
// run, not only when the pool happens to hand it to another goroutine in
// time. The values do not change, so a correct caller sees nothing. The
// goroutine ends once the workspace is pooled; nothing waits for it.
func recycle(ws *solveWorkspace) {
	go func() {
		ws.rewrite()
		workspacePool.Put(ws)
	}()
}

// rewrite writes the workspace's fields and the backing arrays of its
// scratch buffers with the values they hold.
func (ws *solveWorkspace) rewrite() {
	same := *ws
	*ws = same
	for _, b := range [][]float64{
		ws.logW, ws.wr0, ws.wr1, ws.bl0, ws.bl1,
		ws.gLogW, ws.gWR, ws.gBL, ws.gV0, ws.gLo, ws.gHi, ws.gBLo, ws.gBHi, ws.gBP,
		ws.scale, ws.sumPS, ws.sumWR, ws.lambda, ws.next, ws.sums,
		ws.wfRho, ws.wfPS, ws.wfWR, ws.wfCap,
		ws.gains, ws.trial, ws.qAlloc.Rho0, ws.qAlloc.Rho1, ws.pairRho0, ws.pairRho1,
		ws.fillLam, ws.fillShares, ws.fillPrice,
		ws.polishRho0, ws.polishRho1, ws.polishLoad,
	} {
		copy(b, b)
	}
	for _, b := range [][]bool{ws.alive, ws.qAlloc.MBS, ws.pairMBS, ws.eqWide} {
		copy(b, b)
	}
	for _, b := range [][]int{ws.wfIdx, ws.gainRound} {
		copy(b, b)
	}
	copy(ws.u0, ws.u0)
	copy(ws.u1, ws.u1)
	copy(ws.gU, ws.gU)
	copy(ws.gSt, ws.gSt)
	copy(ws.byFBS, ws.byFBS)
	copy(ws.heap, ws.heap)
	copy(ws.eqKeys, ws.eqKeys)
	copy(ws.eqVals, ws.eqVals)
	copy(ws.fillKeys, ws.fillKeys)
	copy(ws.fillOff, ws.fillOff)
	copy(ws.eqLast, ws.eqLast)
	copy(ws.eqWin, ws.eqWin)
	copy(ws.polishKeys, ws.polishKeys)
	copy(ws.polishVals, ws.polishVals)
}
