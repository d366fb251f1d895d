package wire

// RaceEnabled lets the external tests skip allocation pins under the race
// detector, which makes sync.Pool drop a quarter of its Puts.
const RaceEnabled = raceEnabled
