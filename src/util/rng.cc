#include "util/rng.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rlr::util
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    ensure(bound > 0, "Rng::nextBounded: zero bound");
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
        const uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

ZipfSampler::ZipfSampler(uint64_t n, double alpha)
{
    ensure(n > 0, "ZipfSampler: empty population");
    cdf_.resize(n);
    double acc = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = acc;
    }
    for (auto &c : cdf_)
        c /= acc;
}

uint64_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint64_t>(it - cdf_.begin());
}

} // namespace rlr::util
