//go:build !linux

package main

import "time"

// waitUntil returns at t, or at once if t has passed, and reports how
// long it spun. Outside Linux it sleeps with the Go timer, whose
// precision is left as the platform gives it.
func waitUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	return 0
}
