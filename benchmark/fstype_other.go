//go:build !linux

package main

// fsType names the filesystem holding dir; only Linux is identified.
func fsType(string) string { return "unknown" }
