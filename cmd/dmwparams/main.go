// Command dmwparams writes Schnorr-group parameters (p, q, z1, z2) as a
// JSON file that dmwnode and dmwd processes can share: the paper's
// Phase I publication. It generates fresh parameters with crypto/rand,
// or re-emits a built-in preset (-preset) or an existing file (-in).
// The JSON goes to -out, or to stdout. Each process builds its
// precomputed tables from these parameters at boot.
//
// Usage:
//
//	dmwparams -bits 512 -out params.json
//	dmwparams -preset Demo128 > demo.json
//	dmwnode -params params.json ...
//	dmwd -params params.json ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dmw/internal/group"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dmwparams:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmwparams", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		pBits  = fs.Int("bits", 512, "modulus size in bits")
		qBits  = fs.Int("qbits", 0, "subgroup order size in bits (default bits-8)")
		out    = fs.String("out", "", "output file (default stdout)")
		in     = fs.String("in", "", "read parameters from this JSON file instead of generating")
		preset = fs.String("preset", "", "use a built-in preset instead of generating")
	)
	fs.Parse(args) // ExitOnError: exits 0 on -h, 2 on a bad flag

	var pr *group.Params
	var err error
	generated := false
	if *in != "" || *preset != "" {
		pr, err = group.ResolveParams(*in, *preset, func(path string) (io.ReadCloser, error) {
			return os.Open(path)
		})
	} else {
		pr, err = group.Generate(*pBits, *qBits, nil)
		generated = true
	}
	if err != nil {
		return err
	}
	if err := writeParams(*out, stdout, pr); err != nil {
		return err
	}
	if generated {
		fmt.Fprintf(stderr, "dmwparams: generated %d-bit parameters (q: %d bits)\n",
			pr.P.BitLen(), pr.Q.BitLen())
	}
	return nil
}

// writeParams writes pr as JSON to the file at path, or to stdout when
// path is empty. A failed Close is an error: it can be the flush that
// leaves a truncated file behind.
func writeParams(path string, stdout io.Writer, pr *group.Params) error {
	if path == "" {
		return group.SaveParams(stdout, pr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = group.SaveParams(f, pr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
