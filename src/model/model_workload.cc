#include "model/model_workload.h"

#include "common/logging.h"
#include "common/threadpool.h"

namespace sofa {

namespace {

/** splitmix64 finalizer (the same mix bench::Options::seedOr uses). */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
headSeed(std::uint64_t seed, int batch_idx, int head_idx)
{
    std::uint64_t z = mix64(seed ^ 0xB47C4ull);
    z = mix64(z + static_cast<std::uint64_t>(batch_idx));
    z = mix64(z + static_cast<std::uint64_t>(head_idx));
    return z;
}

WorkloadSpec
ModelWorkloadSpec::headSpec(int batch_idx, int head_idx) const
{
    WorkloadSpec hs;
    hs.seq = contextLen();
    hs.queries = queryRows();
    hs.headDim = headDim;
    hs.tokenDim = tokenDim;
    hs.mixture = mixture;
    hs.dominantGain = dominantGain;
    hs.seed = headSeed(seed, batch_idx, head_idx);
    return hs;
}

ModelWorkload
generateModelWorkload(const ModelWorkloadSpec &spec)
{
    SOFA_ASSERT(spec.batch >= 0 && spec.heads >= 1);
    SOFA_ASSERT(spec.contextLen() > 8 && spec.queryRows() > 0);
    SOFA_ASSERT(spec.headDim > 0 && spec.tokenDim > 0);
    if (spec.isDecode())
        SOFA_ASSERT(spec.pastLen >= 0);

    ModelWorkload mw;
    mw.spec = spec;
    // Each item's token stream is seeded per batch item (head index
    // ~0 is reserved for it in the seed space) so every head of the
    // item sees the same tokens. It is one serial RNG stream.
    std::vector<TokenField> fields;
    fields.reserve(static_cast<std::size_t>(spec.batch));
    for (int b = 0; b < spec.batch; ++b) {
        Rng token_rng(headSeed(spec.seed, b, ~0));
        fields.push_back(
            generateTokenField(spec.headSpec(b, 0), token_rng));
    }
    // Every head has its own seed and only reads its item's field,
    // so the heads generate in parallel, one head per chunk, and the
    // grid is bit-identical at any thread count (the matmuls nested
    // inside run inline on the chunk's thread). A throw surfaces on
    // the caller.
    const auto heads = static_cast<std::size_t>(spec.heads);
    mw.grid.resize(static_cast<std::size_t>(spec.batch) * heads);
    parallelForRows(mw.grid.size(), 1,
                    [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
            const int b = static_cast<int>(i / heads);
            const WorkloadSpec hs =
                spec.headSpec(b, static_cast<int>(i % heads));
            Rng head_rng(hs.seed);
            mw.grid[i] = generateHeadWorkload(hs, fields[b], head_rng);
        }
    });
    return mw;
}

} // namespace sofa
