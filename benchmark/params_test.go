package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

func newSpecs() (*specs, *flag.FlagSet) {
	fs := flag.NewFlagSet("snperf", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sp := &specs{}
	sp.register(fs)
	return sp, fs
}

// TestSpecsRefuseBadParameters checks that an unknown, mistyped or
// missing workload parameter is an error.
func TestSpecsRefuseBadParameters(t *testing.T) {
	for _, args := range [][]string{
		{"-capacity", "-rounds=1 -bogus=2"},
		{"-capacity", "-rounds=x"},
		{"-serve", "-devices=16 stray"},
		{"-cluster", "-gang_jobs=-1,2"},
	} {
		_, fs := newSpecs()
		if err := fs.Parse(args); err == nil {
			t.Errorf("%q parsed without an error", args)
		}
	}
	sp, fs := newSpecs()
	if err := fs.Parse([]string{"-capacity", "-rounds=1", "-capacity", "-digest_rounds=1"}); err != nil {
		t.Fatal(err)
	}
	err := sp.check()
	if err == nil || !strings.Contains(err.Error(), "capacity -deeper") || strings.Contains(err.Error(), "-rounds") {
		t.Fatalf("check = %v, want the missing parameters named and the given ones not", err)
	}
}

// TestBenchmarkCommandParses checks that BENCHMARK.json's command gives
// every parameter in range and records the digest of the inputs it
// generates.
func TestBenchmarkCommandParses(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command []string `json:"command"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	sp, fs := newSpecs()
	digest := fs.String("inputs-digest", "", "")
	if err := fs.Parse(bench.Command[2:]); err != nil {
		t.Fatal(err)
	}
	if err := sp.check(); err != nil {
		t.Fatal(err)
	}
	got, err := inputsDigest(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got != *digest {
		t.Fatalf("inputs digest %s, BENCHMARK.json records %s", got, *digest)
	}
}
