package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-fig", "1"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig01.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "input,profit,derivative\n") {
		t.Errorf("fig01.csv header wrong: %q", string(data[:40]))
	}
	lines := strings.Count(string(data), "\n")
	if lines != 302 { // header + 301 samples
		t.Errorf("fig01.csv lines = %d, want 302", lines)
	}
}

func TestRunSweepFigures(t *testing.T) {
	dir := t.TempDir()
	// Coarse step keeps the sweep cheap in tests.
	if err := run([]string{"-out", dir, "-fig", "3", "-step", "2.0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig03.csv")); err != nil {
		t.Errorf("fig03.csv missing: %v", err)
	}
	// Only the requested figure is produced.
	if _, err := os.Stat(filepath.Join(dir, "fig02.csv")); !os.IsNotExist(err) {
		t.Errorf("fig02.csv unexpectedly present (err=%v)", err)
	}
}

func TestRunTables(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-table", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-out", dir, "-table", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEmpiricalFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical pipeline in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-fig", "6"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig06.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// 123 loops + header.
	if lines := strings.Count(string(data), "\n"); lines != 124 {
		t.Errorf("fig06.csv lines = %d, want 124", lines)
	}
}

func TestRunRejectsNothingSelected(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-fig", "3", "-table", "2"}); err == nil {
		t.Error("conflicting selection: want error")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("unknown flag: want error")
	}
}
