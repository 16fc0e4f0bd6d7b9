package main

import (
	"testing"

	"repro/internal/dynamo"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// The seam must not change what a backend does: the conformance suite
// passes through it, with span recording on, over memory and walstore.
func TestSeamConformanceMemory(t *testing.T) {
	storagetest.Run(t, func(tb testing.TB) storage.Backend {
		s := newSeam(storagetest.OpenMemory(tb), new(skewClock))
		s.setTracing(true)
		return s.backend()
	})
}

func TestSeamConformanceWAL(t *testing.T) {
	storagetest.Run(t, func(tb testing.TB) storage.Backend {
		s := newSeam(storagetest.OpenWAL(tb), new(skewClock))
		s.setTracing(true)
		return s.backend()
	})
}

// AsDynamo sees through the seam exactly when it sees through the wrapped
// backend.
func TestSeamForwardsDynamoAccessor(t *testing.T) {
	mem := dynamo.NewStore()
	if got, ok := storage.AsDynamo(newSeam(mem, new(skewClock)).backend()); !ok || got != mem {
		t.Errorf("AsDynamo(seam over memory) = %v, %v; want the memory store", got, ok)
	}
	// A plain *seam offers no accessor, so a seam over it must not either.
	if got, ok := storage.AsDynamo(newSeam(newSeam(mem, new(skewClock)), new(skewClock)).backend()); ok {
		t.Errorf("AsDynamo(seam over a backend without the accessor) = %v, true", got)
	}
}

func TestSeamSpans(t *testing.T) {
	s := newSeam(dynamo.NewStore(), new(skewClock))
	b := s.backend()
	storage.MustCreateTable(b, storage.Schema{Name: "fn.t", HashKey: "K"})
	put := func() {
		if err := b.Put("fn.t", dynamo.Item{"K": dynamo.S("a")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if got := s.takeSpans(); len(got) != 0 {
		t.Errorf("spans recorded with tracing off: %v", got)
	}
	s.setTracing(true)
	put()
	if _, _, err := b.Get("fn.t", dynamo.HK(dynamo.S("a"))); err != nil {
		t.Fatal(err)
	}
	got := s.takeSpans()
	if len(got) != 2 || got[0].Op != opPut || got[1].Op != opGet || got[0].Table != "fn.t" || got[0].End < got[0].Start {
		t.Errorf("spans = %+v, want a put and a get on fn.t", got)
	}
}

// The writes that bracket an SSF call are marked: an intent write, and a
// create-if-absent invoke-log write (not the callback's result write).
func TestSeamMarksBracketWrites(t *testing.T) {
	s := newSeam(dynamo.NewStore(), new(skewClock))
	b := s.backend()
	for _, name := range []string{"fn.intent", "fn.invokelog"} {
		storage.MustCreateTable(b, storage.Schema{Name: name, HashKey: "K"})
	}
	s.setTracing(true)
	key := dynamo.HK(dynamo.S("a"))
	if err := b.Put("fn.intent", dynamo.Item{"K": dynamo.S("a")}, dynamo.NotExists(dynamo.A("K"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Update("fn.invokelog", key, dynamo.NotExists(dynamo.A("K")), dynamo.Set(dynamo.A("V"), dynamo.S("x"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Update("fn.invokelog", key, dynamo.Exists(dynamo.A("K")), dynamo.Set(dynamo.A("R"), dynamo.S("y"))); err != nil {
		t.Fatal(err)
	}
	got := s.takeSpans()
	if len(got) != 3 || !got[0].Bracket || !got[1].Bracket || got[2].Bracket {
		t.Errorf("bracket marks = %+v, want true, true, false", got)
	}
}
