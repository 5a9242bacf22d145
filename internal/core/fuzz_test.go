package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/gf"
	"ppm/internal/stripe"
)

// fuzzCode builds a small SD (family even) or LRC (family odd) code
// from fuzz bytes, or nil when the bytes name no valid instance. SD
// coefficients are drawn from seed rather than searched, so H varies
// widely, singular groups included.
func fuzzCode(family, p1, p2, p3, p4 uint8, seed int64) codes.Code {
	if family%2 == 0 {
		n, r := 2+int(p1)%8, 1+int(p2)%8
		m, s := 1+int(p3)%3, int(p4)%4
		rng := rand.New(rand.NewSource(seed))
		coeffs := make([]uint32, m+s)
		for i := range coeffs {
			coeffs[i] = 1 + uint32(rng.Intn(255))
		}
		sd, err := codes.NewSDWithCoefficients(n, r, m, s, gf.GF8, coeffs)
		if err != nil {
			return nil
		}
		return sd
	}
	lrc, err := codes.NewLRC(2+int(p1)%11, 1+int(p2)%4, int(p3)%4)
	if err != nil {
		return nil
	}
	return lrc
}

// FuzzBuildPlan: for an SD or LRC instance and an erasure set, BuildPlan
// fails exactly when codes.Decodable says the pattern is unrecoverable,
// and otherwise its plan restores a random stripe byte for byte.
func FuzzBuildPlan(f *testing.F) {
	f.Add(uint8(0), uint8(6), uint8(3), uint8(1), uint8(2), int64(1), []byte{0, 8, 16, 24, 3}, uint8(1))
	f.Add(uint8(0), uint8(2), uint8(7), uint8(0), uint8(1), int64(7), []byte{1, 2, 9, 10, 17, 33}, uint8(0))
	f.Add(uint8(1), uint8(10), uint8(1), uint8(2), uint8(0), int64(0), []byte{0, 6, 12, 13}, uint8(2))
	f.Add(uint8(1), uint8(4), uint8(0), uint8(3), uint8(0), int64(0), []byte{0, 1, 2, 3, 4, 5, 6}, uint8(3))
	f.Fuzz(func(t *testing.T, family, p1, p2, p3, p4 uint8, seed int64, erased []byte, strategy uint8) {
		c := fuzzCode(family, p1, p2, p3, p4, seed)
		if c == nil {
			return
		}
		total := codes.TotalSectors(c)
		seen := make(map[int]bool)
		var faulty []int
		for _, b := range erased {
			if s := int(b) % total; !seen[s] {
				seen[s] = true
				faulty = append(faulty, s)
			}
		}
		sc, err := codes.NewScenario(c, faulty)
		if err != nil {
			t.Fatal(err)
		}
		strat := core.Strategy(int(strategy) % 5)
		plan, err := core.BuildPlan(c, sc, strat)
		if decodable := codes.Decodable(c, sc); (err == nil) != decodable {
			t.Fatalf("%s faulty=%v %v: Decodable=%v, BuildPlan error %v", c.Name(), sc.Faulty, strat, decodable, err)
		}
		if err != nil {
			if !errors.Is(err, core.ErrUnrecoverable) {
				t.Fatalf("%s faulty=%v %v: error %v does not wrap ErrUnrecoverable", c.Name(), sc.Faulty, strat, err)
			}
			return
		}

		golden, err := stripe.New(c.NumStrips(), c.NumRows(), 16)
		if err != nil {
			t.Fatal(err)
		}
		golden.FillDataRandom(seed, codes.DataPositions(c))
		if err := decode.Encode(c, golden, decode.Options{}); err != nil {
			t.Fatal(err)
		}
		st := golden.Clone()
		st.Scribble(seed+1, sc.Faulty)
		if err := core.Execute(plan, st, c.Field(), 2, nil); err != nil {
			t.Fatalf("%s faulty=%v %v: %v", c.Name(), sc.Faulty, strat, err)
		}
		if !st.Equal(golden) {
			t.Fatalf("%s faulty=%v %v: plan does not restore the stripe", c.Name(), sc.Faulty, strat)
		}
	})
}
