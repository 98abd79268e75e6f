//go:build !race

package core

// recycle returns a released workspace to the pool.
func recycle(ws *solveWorkspace) { workspacePool.Put(ws) }
