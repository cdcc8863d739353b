//go:build linux

package snapshot

import "syscall"

// populateFlag asks mmap to prefault the whole mapping up front. A load
// checksums the header and the structural sections at once; by default
// it defers the R/T arena scans (see Store.SetVerifyArenas), so the
// arena pages are first read by the queries the adopted analysis
// answers. One MAP_POPULATE walk in the kernel is several times cheaper
// than taking a demand fault per 4KiB page in either place.
const populateFlag = syscall.MAP_POPULATE
