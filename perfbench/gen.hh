/**
 * @file
 * Seeded input generators of the repository benchmark.
 *
 * Every generator is a pure function of its seed arguments: the same
 * seed yields byte-identical guest images (or the same run order), and
 * the engine under test only ever sees the generated inputs.
 */
#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gx86/image.hh"
#include "support/hostisa.hh"

namespace perfbench
{

/** One suite-steady run: a Fig. 12 proxy on one host. */
struct SuiteEntry
{
    std::size_t proxy = 0; ///< Index into workloads::fullSuite().
    risotto::support::HostIsa host = risotto::support::HostIsa::Aarch;
};

/** Every proxy on both hosts, in an order permuted by @p seed. */
std::vector<SuiteEntry> suiteOrder(std::uint64_t seed);

/** Size knobs of the generated images (the self-tests shrink them). */
struct ImageShape
{
    /** Distinct straight-line blocks, each executed exactly once. */
    std::size_t onceBlocks = 4000;
    /** Iterations of the proxy-style loop (serve image only). */
    std::uint64_t loopIterations = 400;
};

/**
 * A cold-image guest: @p shape.onceBlocks distinct straight-line
 * blocks mixing loads, stores, ALU ops, MFENCE and LOCK XADD, each run
 * once by one thread, then an exit with a register/memory checksum.
 * Image @p index of seed @p seed.
 */
risotto::gx86::GuestImage coldImage(std::uint64_t seed, std::size_t index,
                                    const ImageShape &shape = {});

/**
 * The serve-warm guest for two or more threads (tid in r0): once-run
 * blocks on a per-thread region, a short proxy-style loop, then a
 * host-linked sha256 call over a seeded message. The guest twin of the
 * library is linked in, so the reference interpreter computes the
 * digest in guest code.
 */
risotto::gx86::GuestImage serveImage(std::uint64_t seed,
                                     const ImageShape &shape = {});

/** Default serve-warm shape: a few hundred once-run blocks. */
ImageShape serveShape();

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
