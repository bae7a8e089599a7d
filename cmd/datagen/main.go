// Command datagen generates a synthetic spatio-textual dataset (the
// stand-in for the paper's Twitter/Yelp corpora) and writes it to a file
// for later use by cssiquery.
//
// Usage:
//
//	datagen -kind twitter -size 20000 -dim 100 -seed 1 -out twitter.gob
//
// Every flag is checked before anything is generated or opened, so a bad
// -kind or -format leaves an existing -out file untouched.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its exit code: 2 for bad flags, 1 for a
// failed generate or write, 0 once the file is written and closed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind   = fs.String("kind", "twitter", "dataset kind: twitter or yelp")
		size   = fs.Int("size", 20000, "number of objects")
		dim    = fs.Int("dim", 100, "embedding dimensionality")
		seed   = fs.Uint64("seed", 1, "random seed")
		out    = fs.String("out", "", "output file (required)")
		format = fs.String("format", "gob", "output format: gob (binary, with vectors) or csv (id,x,y,text)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "datagen: -out is required")
		return 2
	}
	var k dataset.Kind
	switch *kind {
	case "twitter":
		k = dataset.TwitterLike
	case "yelp":
		k = dataset.YelpLike
	default:
		fmt.Fprintf(stderr, "datagen: unknown kind %q\n", *kind)
		return 2
	}
	var save func(*dataset.Dataset, io.Writer) error
	switch *format {
	case "gob":
		save = (*dataset.Dataset).Save
	case "csv":
		save = (*dataset.Dataset).SaveCSV
	default:
		fmt.Fprintf(stderr, "datagen: unknown format %q\n", *format)
		return 2
	}

	ds, err := dataset.Generate(dataset.GenConfig{Kind: k, Size: *size, Dim: *dim, Seed: *seed})
	if err != nil {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 1
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 1
	}
	if err := errors.Join(save(ds, f), f.Close()); err != nil {
		fmt.Fprintf(stderr, "datagen: save: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d %s objects (n=%d) to %s (%s)\n", ds.Len(), *kind, *dim, *out, *format)
	return 0
}
