package core

import (
	"testing"

	"abndp/internal/mem"
	"abndp/internal/topology"
)

func BenchmarkCampLocations(b *testing.B) {
	e, cm := newEnv(true)
	totalLines := e.space.TotalBytes() / mem.LineSize
	buf := make([]topology.UnitID, 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cm.AppendLocations(buf[:0], mem.Line(uint64(i)*977%totalLines))
	}
}

func BenchmarkNearest(b *testing.B) {
	e, cm := newEnv(true)
	totalLines := e.space.TotalBytes() / mem.LineSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Nearest(e.noc, mem.Line(uint64(i)*977%totalLines), topology.UnitID(i%128))
	}
}

var vecSink []float64

// BenchmarkMemCostVec times one all-units costmem evaluation of a 16-line
// hint on the default 4x4 mesh, camp-aware; it must not allocate.
func BenchmarkMemCostVec(b *testing.B) {
	e, cm := newEnv(true)
	model := NewCostModel(e.noc, cm, true)
	lines := make([]mem.Line, 16)
	for i := range lines {
		lines[i] = mem.Line(i * 131071)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecSink = model.MemCostVec(lines)
	}
}
