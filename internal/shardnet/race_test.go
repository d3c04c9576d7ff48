//go:build race

package shardnet

const raceEnabled = true
