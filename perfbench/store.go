package main

import (
	"sync/atomic"

	"ppm/internal/fault"
)

// storeCounts is the traffic a phase moved through the store.
type storeCounts struct{ read, written int64 }

// meteredStore is the benchmark's wrapper around a fault.Store: it
// counts the bytes every call moves and, when traced, records a
// fault.store_read or fault.store_write span under parent. Each view is
// driven by one goroutine at a time, which sets parent before calling
// the layer that uses the view.
type meteredStore struct {
	fault.Store
	tr     *tracer
	parent int32

	read, written atomic.Int64
}

func (s *meteredStore) ReadStrip(idx, disk int, dst []byte) error {
	sp := s.tr.begin("fault.store_read", s.parent)
	err := s.Store.ReadStrip(idx, disk, dst)
	s.tr.end(sp)
	if err == nil {
		s.read.Add(int64(len(dst)))
	}
	return err
}

func (s *meteredStore) WriteStrip(idx, disk int, src []byte) error {
	sp := s.tr.begin("fault.store_write", s.parent)
	err := s.Store.WriteStrip(idx, disk, src)
	s.tr.end(sp)
	if err == nil {
		s.written.Add(int64(len(src)))
	}
	return err
}

// take returns and resets the view's byte counters.
func (s *meteredStore) take() storeCounts {
	return storeCounts{read: s.read.Swap(0), written: s.written.Swap(0)}
}

func (c *storeCounts) add(o storeCounts) {
	c.read += o.read
	c.written += o.written
}

// presize grows every disk of a fresh store to hold stripes strips in
// one allocation each: fault.MemStore grows a disk by copying it, so
// writing stripes in ascending order from empty would copy the whole
// disk once per stripe.
func presize(s fault.Store, disks []int, stripes int) error {
	zero := make([]byte, s.StripBytes())
	for _, d := range disks {
		if err := s.WriteStrip(stripes-1, d, zero); err != nil {
			return err
		}
	}
	return nil
}
