package main

import (
	"fmt"
	"strings"

	"repro/internal/dynamo"
)

// Output checks. Each one tests a property every correct run must have,
// computed from what the clients sent and received, never against a stored
// copy of earlier output. Reply checks run per request (a malformed reply
// counts as a failed operation); the state checks run once the load stops.

// checkTravelReply verifies one travel reply has its op's shape. booked
// reports a reservation the client must count.
func checkTravelReply(op string, out dynamo.Value) (booked bool, err error) {
	switch op {
	case "search":
		if out.Kind() != dynamo.KindList || len(out.List()) == 0 {
			return false, fmt.Errorf("search: want a non-empty list, got %v", out)
		}
		for _, h := range out.List() {
			m := h.Map()
			if h.Kind() != dynamo.KindMap || !strings.HasPrefix(m["hotel"].Str(), "hotel-") ||
				m["distance"].Kind() != dynamo.KindNumber || m["price"].Kind() != dynamo.KindNumber ||
				m["stars"].Kind() != dynamo.KindNumber {
				return false, fmt.Errorf("search: malformed entry %v", h)
			}
		}
	case "recommend":
		if out.Kind() != dynamo.KindList || len(out.List()) == 0 {
			return false, fmt.Errorf("recommend: want a non-empty list, got %v", out)
		}
		for _, h := range out.List() {
			if !strings.HasPrefix(h.Str(), "hotel-") {
				return false, fmt.Errorf("recommend: malformed entry %v", h)
			}
		}
	case "login":
		// The load generator sends each user's seeded password.
		if out.Kind() != dynamo.KindBool || !out.BoolVal() {
			return false, fmt.Errorf("login: want true, got %v", out)
		}
	case "reserve":
		switch {
		case out.Kind() == dynamo.KindString && out.Str() == "booked":
			return true, nil
		case out.Kind() == dynamo.KindString && out.Str() == "aborted":
		default:
			return false, fmt.Errorf("reserve: want booked or aborted, got %v", out)
		}
	default:
		return false, fmt.Errorf("unknown travel op %q", op)
	}
	return false, nil
}

// checkBookings: under Beldi's cross-SSF transaction, the rooms taken from
// the hotel inventory and the seats taken from the flight inventory both
// equal the "booked" replies the clients counted.
func checkBookings(booked, roomsTaken, seatsTaken int64) error {
	if roomsTaken != booked || seatsTaken != booked {
		return fmt.Errorf("bookings: %d booked replies, but %d rooms and %d seats taken", booked, roomsTaken, seatsTaken)
	}
	return nil
}
