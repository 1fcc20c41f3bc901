#include "common/hash.h"

#include <bit>
#include <cstdio>

#include "common/logging.h"

namespace souffle {

namespace {

// FNV-1a 64-bit constants for lane A; lane B uses a different offset
// basis (a random odd 64-bit constant) so the two lanes decorrelate.
constexpr uint64_t kFnvOffsetA = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvOffsetB = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

} // namespace

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
uniform01(uint64_t seed, uint64_t index)
{
    const uint64_t bits = mix64(seed ^ mix64(index)) >> 11;
    return (static_cast<double>(bits) + 1.0) / 9007199254740993.0;
}

std::string
Fingerprint::toHex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf);
}

Fingerprint
Fingerprint::fromHex(const std::string &hex)
{
    SOUFFLE_REQUIRE(hex.size() == 32,
                    "fingerprint hex must be 32 digits, got '" << hex
                                                               << "'");
    Fingerprint fp;
    uint64_t words[2] = {0, 0};
    for (int w = 0; w < 2; ++w) {
        for (int i = 0; i < 16; ++i) {
            const char ch = hex[static_cast<size_t>(w * 16 + i)];
            uint64_t digit;
            if (ch >= '0' && ch <= '9')
                digit = static_cast<uint64_t>(ch - '0');
            else if (ch >= 'a' && ch <= 'f')
                digit = static_cast<uint64_t>(ch - 'a' + 10);
            else if (ch >= 'A' && ch <= 'F')
                digit = static_cast<uint64_t>(ch - 'A' + 10);
            else
                SOUFFLE_FATAL("bad fingerprint hex digit '"
                              << ch << "' in '" << hex << "'");
            words[w] = (words[w] << 4) | digit;
        }
    }
    fp.hi = words[0];
    fp.lo = words[1];
    return fp;
}

FingerprintHasher::FingerprintHasher()
    : laneA(kFnvOffsetA), laneB(kFnvOffsetB)
{
}

void
FingerprintHasher::absorbByte(uint8_t byte)
{
    laneA = (laneA ^ byte) * kFnvPrime;
    laneB = (laneB ^ byte) * kFnvPrime;
    // Decorrelate the lanes: B additionally rotates, so swapping two
    // bytes changes the lanes differently.
    laneB = std::rotl(laneB, 13);
    ++length;
}

void
FingerprintHasher::absorbWord(uint64_t word)
{
    // Little-endian value serialization, independent of host layout.
    for (int i = 0; i < 8; ++i)
        absorbByte(static_cast<uint8_t>((word >> (8 * i)) & 0xff));
}

FingerprintHasher &
FingerprintHasher::absorb(uint64_t value)
{
    absorbWord(value);
    return *this;
}

FingerprintHasher &
FingerprintHasher::absorb(int64_t value)
{
    absorbWord(static_cast<uint64_t>(value));
    return *this;
}

FingerprintHasher &
FingerprintHasher::absorb(int value)
{
    absorbWord(static_cast<uint64_t>(static_cast<int64_t>(value)));
    return *this;
}

FingerprintHasher &
FingerprintHasher::absorb(bool value)
{
    absorbByte(value ? 1 : 0);
    return *this;
}

FingerprintHasher &
FingerprintHasher::absorb(double value)
{
    // +0.0 and -0.0 have distinct bit patterns but compare equal;
    // canonicalize so equal values hash equal.
    if (value == 0.0)
        value = 0.0;
    absorbWord(std::bit_cast<uint64_t>(value));
    return *this;
}

FingerprintHasher &
FingerprintHasher::absorb(const std::string &text)
{
    absorbWord(static_cast<uint64_t>(text.size()));
    for (char ch : text)
        absorbByte(static_cast<uint8_t>(ch));
    return *this;
}

FingerprintHasher &
FingerprintHasher::absorb(std::span<const int64_t> values)
{
    absorbWord(static_cast<uint64_t>(values.size()));
    for (int64_t v : values)
        absorbWord(static_cast<uint64_t>(v));
    return *this;
}

FingerprintHasher &
FingerprintHasher::absorb(const std::vector<int64_t> &values)
{
    return absorb(std::span<const int64_t>(values));
}

FingerprintHasher &
FingerprintHasher::absorb(const Fingerprint &fp)
{
    absorbWord(fp.hi);
    absorbWord(fp.lo);
    return *this;
}

Fingerprint
FingerprintHasher::finish() const
{
    Fingerprint fp;
    fp.hi = mix64(laneA ^ mix64(length));
    fp.lo = mix64(laneB + mix64(laneA));
    // Reserve the all-zero value for "unset".
    if (!fp.valid())
        fp.lo = 1;
    return fp;
}

} // namespace souffle
