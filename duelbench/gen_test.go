package main

import (
	"bytes"
	"strings"
	"testing"
)

// streamOf renders a workload's query stream and image for comparison.
func streamOf(t *testing.T, workload string, seed uint64) (stream string, img []byte) {
	t.Helper()
	var b strings.Builder
	texts := func(qs []query) {
		for _, q := range qs {
			b.WriteString(q.Text)
			b.WriteByte('\n')
		}
	}
	var im *image
	var err error
	switch workload {
	case "scan":
		in := genScan(seed)
		texts(in.Queries)
		texts(in.Writes)
		im, err = buildScan(in)
	case "walk":
		in := genWalk(seed)
		texts(in.Queries)
		texts(in.Writes)
		im, err = buildWalk(in)
	case "serve":
		in := genServe(seed)
		texts(in.Reads)
		ss := in.serveSteps([]int{500, 500})
		for s := range 2 {
			for _, q := range ss.step(s) {
				texts([]query{*q})
			}
		}
		im, err = buildServe(in)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), append(append([]byte(nil), im.p.Data.Data...), im.p.Heap.Data...)
}

// TestSeedDeterminesInputs pins that the seed alone makes the inputs: the
// same seed gives byte-identical query streams and target images, another
// seed changes both.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range []string{"scan", "walk", "serve"} {
		t.Run(w, func(t *testing.T) {
			s1, i1 := streamOf(t, w, 11)
			s2, i2 := streamOf(t, w, 11)
			s3, i3 := streamOf(t, w, 12)
			if s1 != s2 || !bytes.Equal(i1, i2) {
				t.Error("same seed gave different inputs")
			}
			if s1 == s3 {
				t.Error("another seed gave the same query stream")
			}
			if bytes.Equal(i1, i3) {
				t.Error("another seed gave the same target image")
			}
		})
	}
}
