package main

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// opKind classifies a Backend data call the way dynamo.Metrics does.
type opKind int

const (
	opGet opKind = iota
	opPut
	opUpdate
	opDelete
	opQuery
	opScan
	opTxWrite
	numOps
)

var opNames = [numOps]string{"get", "put", "update", "delete", "query", "scan", "txwrite"}

var dataOps = []opKind{opGet, opPut, opUpdate, opDelete, opQuery, opScan, opTxWrite}

// seamSpan is one timed Backend call.
//
// Bracket marks the two writes that bracket every SSF call in the core's
// protocol: the caller's create-if-absent invoke-log write ("<fn>.invokelog",
// before the callee runs) and the callee's intent write ("<fn>.intent",
// before its exec span opens). They fall between a call span and its
// callee's exec span, the part of the trace counted as dispatch.
type seamSpan struct {
	Op      opKind `json:"-"`
	Table   string `json:"table,omitempty"`
	Bracket bool   `json:"bracket,omitempty"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

func (s seamSpan) dur() int64 { return s.End - s.Start }

// seam is a storage.Backend decorator that, while tracing is on, times
// every data call by op kind. It is installed only where a Backend is
// handed in (DeploymentOptions.Store and the backend given to
// remote.NewServer), so it sits beneath the speculation overlay.
type seam struct {
	inner   storage.Backend
	clk     *skewClock
	tracing atomic.Bool

	mu    sync.Mutex
	spans []seamSpan
}

func newSeam(inner storage.Backend, clk *skewClock) *seam { return &seam{inner: inner, clk: clk} }

// backend returns the wrapper as a deployment or server should hold it:
// it offers the DynamoStore accessor exactly when the wrapped backend
// does, so storage.AsDynamo answers as it would without the wrapper.
func (s *seam) backend() storage.Backend {
	if _, ok := storage.AsDynamo(s.inner); ok {
		return dynamoSeam{s}
	}
	return s
}

// setTracing turns span recording on or off and discards recorded spans.
func (s *seam) setTracing(on bool) {
	s.mu.Lock()
	s.spans = nil
	s.mu.Unlock()
	s.tracing.Store(on)
}

// takeSpans returns the recorded spans and clears the buffer.
func (s *seam) takeSpans() []seamSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}

func (s *seam) begin() int64 {
	if !s.tracing.Load() {
		return 0
	}
	return s.clk.Now().UnixNano()
}

func (s *seam) end(k opKind, table string, t0 int64) { s.endBracket(k, table, false, t0) }

func (s *seam) endBracket(k opKind, table string, bracket bool, t0 int64) {
	if t0 == 0 {
		return
	}
	sp := seamSpan{Op: k, Table: table, Bracket: bracket, Start: t0, End: s.clk.Now().UnixNano()}
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

func (s *seam) CreateTable(schema storage.Schema) error { return s.inner.CreateTable(schema) }

func (s *seam) DeleteTable(name string) error { return s.inner.DeleteTable(name) }

func (s *seam) TableNames() []string { return s.inner.TableNames() }

func (s *seam) TableShards(name string) (int, error) { return s.inner.TableShards(name) }

func (s *seam) TableSchema(name string) (storage.Schema, error) { return s.inner.TableSchema(name) }

func (s *seam) TableBytes(name string) (int, error) { return s.inner.TableBytes(name) }

func (s *seam) TableItemCount(name string) (int, error) { return s.inner.TableItemCount(name) }

func (s *seam) Get(table string, key storage.Key) (storage.Item, bool, error) {
	t0 := s.begin()
	defer s.end(opGet, table, t0)
	return s.inner.Get(table, key)
}

func (s *seam) GetProj(table string, key storage.Key, proj []storage.Path) (storage.Item, bool, error) {
	t0 := s.begin()
	defer s.end(opGet, table, t0)
	return s.inner.GetProj(table, key, proj)
}

func (s *seam) Put(table string, item storage.Item, cond storage.Cond) error {
	t0 := s.begin()
	defer s.endBracket(opPut, table, t0 != 0 && strings.HasSuffix(table, ".intent"), t0)
	return s.inner.Put(table, item, cond)
}

func (s *seam) Update(table string, key storage.Key, cond storage.Cond, updates ...storage.Update) error {
	t0 := s.begin()
	defer s.endBracket(opUpdate, table, t0 != 0 && strings.HasSuffix(table, ".invokelog") && createOnly(cond), t0)
	return s.inner.Update(table, key, cond, updates...)
}

func (s *seam) Delete(table string, key storage.Key, cond storage.Cond) error {
	t0 := s.begin()
	defer s.end(opDelete, table, t0)
	return s.inner.Delete(table, key, cond)
}

func (s *seam) Query(table string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	t0 := s.begin()
	defer s.end(opQuery, table, t0)
	return s.inner.Query(table, hash, opts)
}

func (s *seam) QueryIndex(table, index string, hash storage.Value, opts storage.QueryOpts) ([]storage.Item, error) {
	t0 := s.begin()
	defer s.end(opQuery, table, t0)
	return s.inner.QueryIndex(table, index, hash, opts)
}

func (s *seam) Scan(table string, opts storage.QueryOpts) ([]storage.Item, error) {
	t0 := s.begin()
	defer s.end(opScan, table, t0)
	return s.inner.Scan(table, opts)
}

func (s *seam) TransactWrite(ops []storage.TxOp) error {
	t0 := s.begin()
	defer s.end(opTxWrite, "", t0)
	return s.inner.TransactWrite(ops)
}

func (s *seam) Metrics() *storage.Metrics { return s.inner.Metrics() }

// createOnly reports a bare attribute_not_exists condition: the
// create-if-absent form of the invoke-log write that starts a call (the
// callback that later records the result is conditioned on the row
// existing).
func createOnly(c storage.Cond) bool {
	d, ok := dynamo.DescribeCond(c)
	return ok && d.Kind == dynamo.CondNotExists
}

var errNoWatch = errors.New("beldibench: wrapped backend has no commit stream")

// Watch forwards commit-stream subscriptions (storage.Watcher).
func (s *seam) Watch(table string, hash storage.Value) (storage.Subscription, error) {
	w, ok := s.inner.(storage.Watcher)
	if !ok {
		return nil, errNoWatch
	}
	return w.Watch(table, hash)
}

// dynamoSeam is the seam over a backend that unwraps to a dynamo store.
type dynamoSeam struct{ *seam }

// DynamoStore forwards the accessor storage.AsDynamo probes for.
func (d dynamoSeam) DynamoStore() *dynamo.Store {
	ds, _ := storage.AsDynamo(d.inner)
	return ds
}
