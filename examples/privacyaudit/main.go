// Privacyaudit: the collusion attack of Theorem 10, from the attacker's
// side.
//
// A losing agent's bid is hidden in the degrees of two random polynomials
// whose evaluations are shared with every other agent. This example lets
// coalitions of growing size pool their shares and attempt polynomial
// degree resolution against a victim's bid, demonstrating:
//
//   - the e-polynomial threshold the paper proves: a coalition needs
//     sigma - y + 1 > c + 1 members, and LOWER (better) bids need MORE
//     colluders;
//
//   - the f-polynomial side channel this reproduction surfaced: a bid y
//     falls to just y + 1 colluders, so low bids are the most exposed
//     (see DESIGN.md and EXPERIMENTS.md, experiment E-priv).
//
//     go run ./examples/privacyaudit
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dmw/internal/bidcode"
	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/privacy"
)

func main() {
	params := group.MustPreset(group.PresetDemo128)
	f, err := field.New(params.Q)
	if err != nil {
		log.Fatal(err)
	}
	cfg := bidcode.Config{W: []int{1, 2, 3, 4}, C: 2, N: 10}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	alphas, err := bidcode.Pseudonyms(f, cfg.N)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("auction parameters: n=%d agents, W=%v, c=%d (sigma=%d)\n\n",
		cfg.N, cfg.W, cfg.C, cfg.Sigma())
	fmt.Println("victim bids, and the smallest coalition that recovers each:")
	fmt.Printf("  %-4s  %-22s  %s\n", "bid", "via e-poly (Thm 10)", "via f-poly (side channel)")
	for _, y := range cfg.W {
		fmt.Printf("  %-4d  %-22d  %d\n", y, privacy.MinCoalitionViaE(cfg, y), privacy.MinCoalitionViaF(y))
	}

	rng := rand.New(rand.NewSource(7))
	fmt.Println("\nempirical attack (one random victim per bid value):")
	for _, y := range cfg.W {
		enc, err := bidcode.Encode(cfg, y, f, rng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  victim bidding %d:\n", y)
		for k := 1; k <= 8; k++ {
			res, err := privacy.Attack(f, cfg, enc, alphas[:k])
			if err != nil {
				log.Fatal(err)
			}
			switch {
			case res.ViaE == y && res.ViaF == y:
				fmt.Printf("    coalition of %d: bid RECOVERED via both polynomials\n", k)
			case res.ViaE == y:
				fmt.Printf("    coalition of %d: bid RECOVERED via e-polynomial\n", k)
			case res.ViaF == y:
				fmt.Printf("    coalition of %d: bid RECOVERED via f-polynomial\n", k)
			default:
				fmt.Printf("    coalition of %d: nothing learned\n", k)
			}
		}
	}
	fmt.Println("\nconclusion: coalitions of size <= c =", cfg.C,
		"never break the e-polynomial encoding (Theorem 10),")
	fmt.Println("but low bids leak through the f-polynomials at size y+1 — an observed")
	fmt.Println("limitation of the protocol this reproduction documents.")
}
