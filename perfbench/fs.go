package main

import (
	"fmt"
	"syscall"
)

// filesystem names the filesystem holding dir, from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// processCPU is the CPU time, user plus system, the kernel has charged
// this process so far, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
