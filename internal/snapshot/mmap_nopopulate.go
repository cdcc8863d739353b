//go:build unix && !linux

package snapshot

// populateFlag: no MAP_POPULATE equivalent; pages fault in on demand,
// during the checksum scans or on the first queries that read them.
const populateFlag = 0
