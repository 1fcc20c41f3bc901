#pragma once

/**
 * @file
 * Stable 128-bit content fingerprints.
 *
 * The content-addressed compilation layer keys cached artifacts by
 * structural hashes of IR objects (TEs, programs, device specs). Keys
 * must be *stable*: the same logical content must hash identically
 * across processes, runs, and platforms, so on-disk cache entries
 * written by one build are valid for the next. `std::hash` guarantees
 * none of that, so this module provides a fixed algorithm: two
 * independent 64-bit FNV-1a lanes over an explicitly-serialized value
 * stream, finished with a splitmix64-style avalanche. Values (not raw
 * memory) are absorbed, making the result layout- and
 * endianness-independent.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace souffle {

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
uint64_t mix64(uint64_t x);

/**
 * Draw @p index of the counter PRNG stream @p seed: a uniform double
 * in (0, 1], never 0 so log() is safe. Every seeded generator (serving
 * workloads, fleet traffic, fault schedules) draws from it, so one
 * seed reproduces bit for bit without `<random>`.
 */
double uniform01(uint64_t seed, uint64_t index);

/** A 128-bit content hash. All-zero means "unset". */
struct Fingerprint
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool valid() const { return hi != 0 || lo != 0; }

    bool operator==(const Fingerprint &other) const
    {
        return hi == other.hi && lo == other.lo;
    }
    bool operator!=(const Fingerprint &other) const
    {
        return !(*this == other);
    }
    bool operator<(const Fingerprint &other) const
    {
        return hi != other.hi ? hi < other.hi : lo < other.lo;
    }

    /** 32 lowercase hex digits (hi then lo). */
    std::string toHex() const;

    /** Parse `toHex` output; throws FatalError on malformed input. */
    static Fingerprint fromHex(const std::string &hex);
};

/**
 * Incremental fingerprint builder. Absorb a tagged value stream, then
 * `finish()`. Tags (small integers fed through `absorb(uint64_t)`)
 * disambiguate adjacent fields so `["ab", "c"]` and `["a", "bc"]`
 * cannot collide by concatenation.
 */
class FingerprintHasher
{
  public:
    FingerprintHasher();

    FingerprintHasher &absorb(uint64_t value);
    FingerprintHasher &absorb(int64_t value);
    FingerprintHasher &absorb(int value);
    FingerprintHasher &absorb(bool value);
    /** Absorbs the IEEE-754 bit pattern (exact, not approximate). */
    FingerprintHasher &absorb(double value);
    /** Length-prefixed, so adjacent strings cannot alias. */
    FingerprintHasher &absorb(const std::string &text);
    FingerprintHasher &absorb(std::span<const int64_t> values);
    FingerprintHasher &absorb(const std::vector<int64_t> &values);
    /** Fold an already-computed fingerprint into the stream. */
    FingerprintHasher &absorb(const Fingerprint &fp);

    /** Finalize. The hasher may keep absorbing afterwards (the
     *  finalization is non-destructive). */
    Fingerprint finish() const;

  private:
    void absorbByte(uint8_t byte);
    void absorbWord(uint64_t word);

    uint64_t laneA;
    uint64_t laneB;
    uint64_t length = 0;
};

} // namespace souffle
