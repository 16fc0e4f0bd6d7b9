package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/beldi"
	"repro/internal/apps/travel"
	"repro/internal/dynamo"
)

// travelFunctions lists the SSFs the travel application registers.
var travelFunctions = []string{
	travel.FnFrontend, travel.FnSearch, travel.FnGeo, travel.FnRate, travel.FnRecommend,
	travel.FnUser, travel.FnProfile, travel.FnReserve, travel.FnReserveHotel, travel.FnReserveFlight,
}

// travelMix gives each op's share of the travel request mix.
var travelMix = map[string]float64{"search": 0.60, "recommend": 0.18, "login": 0.15, "reserve": 0.07}

// travelApp drives the travel case study: it seeds state, draws requests
// from the application's own mix, checks each reply, and checks the state
// the requests left behind.
type travelApp struct {
	a      *travel.App
	booked atomic.Int64 // "booked" replies the clients received
}

func newTravelApp(d *beldi.Deployment) *travelApp { return &travelApp{a: travel.Build(d)} }

// rebuild registers the application on another deployment (one over the
// durable store) without seeding it, carrying over what the clients
// observed so the state checks can run there.
func (t *travelApp) rebuild(d *beldi.Deployment) *travelApp {
	b := newTravelApp(d)
	b.booked.Store(t.booked.Load())
	return b
}

func (t *travelApp) entry() string { return t.a.Entry() }

// isUpdate reports an op that changes state (update_p50_ms).
func isUpdate(op string) bool { return op == "reserve" }

// reply checks one reply and counts the bookings the state check needs.
func (t *travelApp) reply(req, out dynamo.Value) error {
	booked, err := checkTravelReply(req.Map()["op"].Str(), out)
	if booked {
		t.booked.Add(1)
	}
	return err
}

// checkState checks the inventories of d, a deployment over the store the
// requests ran against.
func (t *travelApp) checkState(d *beldi.Deployment) error {
	hotels, err := travel.AuditInventory(d, travel.FnReserveHotel)
	if err != nil {
		return fmt.Errorf("audit hotels: %w", err)
	}
	flights, err := travel.AuditInventory(d, travel.FnReserveFlight)
	if err != nil {
		return fmt.Errorf("audit flights: %w", err)
	}
	initial := int64(travel.NumHotels) * travel.InitialCapacity
	return checkBookings(t.booked.Load(), initial-hotels, initial-flights)
}

// draw returns n requests from the application's own generator, keeping
// each op's count at its share of n: a draw whose op has filled its quota
// is dropped. Every round thus sends the same number of each op, whatever
// the seed, while the seed still picks the users, hotels and order.
func (t *travelApp) draw(r *rand.Rand, n int) []dynamo.Value {
	ops := make([]string, 0, len(travelMix))
	for op := range travelMix {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	quota := map[string]int{}
	left := n
	for _, op := range ops {
		quota[op] = int(travelMix[op]*float64(n) + 1e-9)
		left -= quota[op]
	}
	for _, op := range ops[:left] {
		quota[op]++
	}
	out := make([]dynamo.Value, 0, n)
	for len(out) < n {
		req := t.a.Request(r)
		if op := req.Map()["op"].Str(); quota[op] > 0 {
			quota[op]--
			out = append(out, req)
		}
	}
	return out
}
