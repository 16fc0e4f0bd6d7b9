package main

import (
	"fmt"
	"testing"

	"repro/internal/dynamo"
)

func TestCheckBookings(t *testing.T) {
	if err := checkBookings(7, 7, 7); err != nil {
		t.Errorf("consistent bookings rejected: %v", err)
	}
	if err := checkBookings(8, 7, 7); err == nil {
		t.Error("a booking counted twice was accepted")
	}
	if err := checkBookings(7, 7, 6); err == nil {
		t.Error("a room taken without its seat was accepted")
	}
}

func TestCheckReplies(t *testing.T) {
	if _, err := checkTravelReply("login", dynamo.Bool(false)); err == nil {
		t.Error("a failed login was accepted")
	}
	if booked, err := checkTravelReply("reserve", dynamo.S("booked")); !booked || err != nil {
		t.Errorf("booked reply: %v, %v", booked, err)
	}
	if _, err := checkTravelReply("search", dynamo.L()); err == nil {
		t.Error("an empty search result was accepted")
	}
}

func smallEnv(t *testing.T, w workload) *env {
	t.Helper()
	e, err := newEnv(w, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	})
	return e
}

// The travel state check counts bookings from the store: a client count
// that is one too high is caught.
func TestTravelStateRejectsDoubleCountedBooking(t *testing.T) {
	e := smallEnv(t, workload{name: "travel", backend: "memory"})
	var reqs []dynamo.Value
	for i := 0; i < 6; i++ {
		reqs = append(reqs, dynamo.M(map[string]dynamo.Value{
			"op": dynamo.S("reserve"), "hotel": dynamo.S("hotel-050"), "flight": dynamo.S("flight-050"),
		}))
	}
	if failed := e.drive(reqs, nil, nil); failed != 0 {
		t.Fatalf("%d reservations failed", failed)
	}
	if err := e.app.checkState(e.d); err != nil {
		t.Fatalf("untampered state rejected: %v", err)
	}
	e.app.booked.Add(1)
	if err := e.app.checkState(e.d); err == nil {
		t.Error("a booking counted twice was accepted")
	}
}

// One small round of every workload, traced and untraced, runs with no
// failed operation and passes every check, the once-per-run ones included.
func TestRoundsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w := w
			w.warmup, w.requests = 20, 120
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				r, err := runRound(w, 1, 0, t.TempDir(), traced, func() bool { return true })
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.checkErr != nil {
					t.Fatalf("failed %d, check: %v", r.failed, r.checkErr)
				}
				for _, m := range endToEnd {
					if _, ok := r.m[m.name]; !ok {
						t.Errorf("round did not measure %s", m.name)
					}
				}
			})
		}
	}
}
