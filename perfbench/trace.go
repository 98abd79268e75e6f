package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"femtocr/internal/safeio"
)

// Tracing. The replay records a span around every call it makes into a
// layer: name, start, end, the enclosing span, and the op it belongs to.
// Spans live in memory in fixed-size chunks (so a recorded span never
// moves and recording never copies) and are written out when the run ends.
// Counts are recorded at the same boundaries.

// layer names a span kind.
type layer uint8

const (
	layerOp layer = iota
	layerPartition
	layerSubnetwork
	layerShard
	layerFrontend
	layerGreedy
	layerSolve
	layerRealize
	numLayers
)

var layerNames = [numLayers]string{
	"op", "netmodel.partition", "netmodel.subnetwork", "shard",
	"frontend", "greedy", "solve", "realize",
}

// childLayers are the layer spans whose time is not the engine's own: an
// op's sim self time is its duration minus these.
var childLayers = []layer{layerPartition, layerSubnetwork, layerFrontend, layerGreedy, layerSolve, layerRealize}

type span struct {
	id, parent int32 // parent is -1 for an op span
	op         int32
	name       layer
	start, end int64 // ns since the tracer's base
}

const spanChunk = 1 << 14

// layerCounts are the per-layer work counts of a traced run.
type layerCounts struct {
	slots    int64 // engine slots (one Frontend.Step each)
	accessed int64 // sum of |A(t)|
	solves   int64 // SolveInto calls
	qEvals   int64 // GreedyResult.Evaluations
	steps    int64 // accepted greedy steps
}

// tracer records spans; a nil *tracer records nothing.
type tracer struct {
	base   time.Time
	chunks [][]span
	n      int32
	op     int32
	counts layerCounts
}

func newTracer() *tracer { return &tracer{base: now()} }

// now reads the wall clock. Every timing in the benchmark goes through it;
// no simulated quantity ever reads it.
func now() time.Time {
	return time.Now() //femtovet:ignore randsource -- benchmark timing, not simulation state
}

// begin opens a span under parent (nil for an op span).
func (t *tracer) begin(name layer, parent *span) *span {
	if t == nil {
		return nil
	}
	c := int(t.n) / spanChunk
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]span, spanChunk))
	}
	s := &t.chunks[c][int(t.n)%spanChunk]
	*s = span{id: t.n, parent: -1, op: t.op, name: name}
	if parent != nil {
		s.parent = parent.id
	}
	t.n++
	s.start = int64(time.Since(t.base))
	return s
}

// end closes s.
func (t *tracer) end(s *span) {
	if t != nil {
		s.end = int64(time.Since(t.base))
	}
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) *span {
	if t == nil {
		return nil
	}
	t.op = int32(i)
	return t.begin(layerOp, nil)
}

// each calls fn on every recorded span in order.
func (t *tracer) each(fn func(s *span)) {
	for i := int32(0); i < t.n; i++ {
		fn(&t.chunks[int(i)/spanChunk][int(i)%spanChunk])
	}
}

// write saves the spans as CSV.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	w := safeio.NewWriter(bw)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	t.each(func(s *span) {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.op, layerNames[s.name], s.start, s.end)
	})
	err = w.Err()
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// layerTotals sums span time per layer and collects each op's duration.
func (t *tracer) layerTotals() (total [numLayers]int64, opNS []float64) {
	t.each(func(s *span) {
		d := s.end - s.start
		total[s.name] += d
		if s.name == layerOp {
			opNS = append(opNS, float64(d))
		}
	})
	return total, opNS
}
