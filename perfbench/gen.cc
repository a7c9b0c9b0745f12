#include "gen.hh"

#include <utility>

#include "gx86/assembler.hh"
#include "hostlib/hostlib.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using risotto::Rng;
using risotto::gx86::Assembler;
using risotto::gx86::Cond;
using risotto::gx86::GuestImage;
using risotto::gx86::Reg;
using risotto::support::HostIsa;

namespace
{

/** Base register of the data region every generated access targets. */
constexpr Reg RegionReg = 13;

/** Bytes of the region one thread works on. */
constexpr std::uint32_t RegionBytes = 64 * 1024;

/** Copy-on-write page size of guest memory forks. */
constexpr std::size_t PageBytes = 4096;

/** Threads the serve image reserves a region for. */
constexpr std::uint32_t ServeMaxThreads = 8;

/** Bytes the serve image's host-linked sha256 digests. */
constexpr std::size_t MessageBytes = 256;

/** Distinct seed streams per generator, so that image 0 of a cold run
 * never equals the serve image of the same seed. */
constexpr std::uint64_t ColdStream = 0xc01d'0000'0000'0000ULL;
constexpr std::uint64_t ServeStream = 0x5e7e'0000'0000'0000ULL;

/** A working register: r1..r12 (r0 carries the tid and syscall
 * numbers, r13 the region base, r14 loop counters, r15 the stack). */
Reg
workReg(Rng &rng)
{
    return static_cast<Reg>(1 + rng.below(12));
}

std::int32_t
quadOffset(Rng &rng)
{
    return static_cast<std::int32_t>(8 * rng.below(RegionBytes / 8));
}

/**
 * One straight-line block that ends by branching to @p next, which the
 * caller binds right after it: the block runs exactly once whichever
 * way its closing branch goes.
 */
void
emitOnceBlock(Assembler &a, Rng &rng, Assembler::Label next)
{
    const std::size_t body = 5 + rng.below(10);
    for (std::size_t i = 0; i < body; ++i) {
        const std::uint64_t pick = rng.below(100);
        const Reg rd = workReg(rng);
        const Reg rs = workReg(rng);
        const auto imm = static_cast<std::int32_t>(rng.range(-4096, 4096));
        if (pick < 30) {
            switch (rng.below(6)) {
              case 0: a.add(rd, rs); break;
              case 1: a.sub(rd, rs); break;
              case 2: a.xor_(rd, rs); break;
              case 3: a.and_(rd, rs); break;
              case 4: a.or_(rd, rs); break;
              default: a.mul(rd, rs); break;
            }
        } else if (pick < 50) {
            switch (rng.below(8)) {
              case 0: a.addi(rd, imm); break;
              case 1: a.subi(rd, imm); break;
              case 2: a.xori(rd, imm); break;
              case 3: a.andi(rd, imm); break;
              case 4: a.ori(rd, imm); break;
              case 5: a.muli(rd, imm | 1); break;
              case 6:
                a.shli(rd, static_cast<std::uint8_t>(rng.below(64)));
                break;
              default:
                a.shri(rd, static_cast<std::uint8_t>(rng.below(64)));
                break;
            }
        } else if (pick < 70) {
            a.load(rd, RegionReg, quadOffset(rng));
        } else if (pick < 82) {
            a.store(RegionReg, quadOffset(rng), rs);
        } else if (pick < 86) {
            a.storei(RegionReg, quadOffset(rng), imm);
        } else if (pick < 89) {
            a.load8(rd, RegionReg,
                    static_cast<std::int32_t>(rng.below(RegionBytes)));
        } else if (pick < 91) {
            a.store8(RegionReg,
                     static_cast<std::int32_t>(rng.below(RegionBytes)), rs);
        } else if (pick < 94) {
            a.movri(rd, static_cast<std::int64_t>(rng.next()));
        } else if (pick < 97) {
            a.mfence();
        } else {
            a.lockXadd(RegionReg, quadOffset(rng), rs);
        }
    }
    if (rng.chance(3, 10)) {
        a.cmpri(workReg(rng), static_cast<std::int32_t>(rng.range(-64, 64)));
        a.jcc(static_cast<Cond>(rng.below(6)), next);
    } else {
        a.jmp(next);
    }
}

void
seedRegisters(Assembler &a, Rng &rng)
{
    for (Reg r = 1; r <= 12; ++r)
        a.movri(r, static_cast<std::int64_t>(rng.next()));
}

void
emitOnceBlocks(Assembler &a, Rng &rng, std::size_t count)
{
    for (std::size_t b = 0; b < count; ++b) {
        const auto next = a.newLabel();
        emitOnceBlock(a, rng, next);
        a.bind(next);
    }
}

/** Fold r1..r12 and eight region words into @p acc. */
void
emitChecksum(Assembler &a, Rng &rng, Reg acc)
{
    a.movri(acc, 0x9e37'79b9);
    for (Reg r = 1; r <= 12; ++r) {
        if (r == acc)
            continue;
        a.muli(acc, 31);
        a.add(acc, r);
    }
    for (int k = 0; k < 8; ++k) {
        a.load(14, RegionReg, quadOffset(rng));
        a.muli(acc, 31);
        a.xor_(acc, 14);
    }
}

/** Print @p chars printable characters of @p acc, then exit with it. */
void
emitPrintAndExit(Assembler &a, Reg acc, int chars)
{
    for (int i = 0; i < chars; ++i) {
        a.movrr(1, acc);
        a.shri(1, static_cast<std::uint8_t>(6 * i));
        a.andi(1, 0x3f);
        a.addi(1, '0');
        a.movri(0, 1);
        a.syscall();
    }
    a.movrr(1, acc);
    a.movri(0, 0);
    a.syscall();
}

} // namespace

std::vector<SuiteEntry>
suiteOrder(std::uint64_t seed)
{
    std::vector<SuiteEntry> order;
    const std::size_t proxies = risotto::workloads::fullSuite().size();
    for (std::size_t p = 0; p < proxies; ++p)
        for (const HostIsa host : {HostIsa::Aarch, HostIsa::Rv64})
            order.push_back({p, host});
    Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

GuestImage
coldImage(std::uint64_t seed, std::size_t index, const ImageShape &shape)
{
    Rng rng(ColdStream ^ (seed * 0x100000001b3ULL + index));
    Assembler a;
    const auto region = a.dataReserve(RegionBytes, 8);
    a.defineSymbol("main");
    a.movri(RegionReg, static_cast<std::int64_t>(region));
    seedRegisters(a, rng);
    emitOnceBlocks(a, rng, shape.onceBlocks);
    emitChecksum(a, rng, 2);
    emitPrintAndExit(a, 2, 4);
    return a.finish("main");
}

ImageShape
serveShape()
{
    ImageShape shape;
    shape.onceBlocks = 300;
    return shape;
}

GuestImage
serveImage(std::uint64_t seed, const ImageShape &shape)
{
    Rng rng(ServeStream ^ seed);
    Assembler a;
    // The message sits on pages of its own that no thread writes: a
    // host call reading a page the session has written flattens the
    // session's copy-on-write fork into a full private copy, and this
    // workload measures sessions that stay forked.
    const auto region =
        a.dataReserve(RegionBytes * ServeMaxThreads, PageBytes);
    std::vector<std::uint8_t> message(MessageBytes);
    for (auto &byte : message)
        byte = static_cast<std::uint8_t>(rng.next());
    a.dataReserve(0, PageBytes);
    const auto text = a.dataBytes(message);

    const auto start = a.newLabel();
    a.defineSymbol("main");
    a.jmp(start);
    risotto::hostlib::emitGuestCryptoLibrary(a);
    a.bind(start);
    // r13 = region + tid * RegionBytes: threads never share a line, so
    // every thread's result is its sequential reference result.
    a.movrr(RegionReg, 0);
    a.muli(RegionReg, static_cast<std::int32_t>(RegionBytes));
    a.movri(14, static_cast<std::int64_t>(region));
    a.add(RegionReg, 14);
    seedRegisters(a, rng);
    emitOnceBlocks(a, rng, shape.onceBlocks);

    // A proxy-style loop: loads feed an accumulator, stores and one
    // LOCK XADD per iteration, then integer ALU work.
    a.movri(14, static_cast<std::int64_t>(shape.loopIterations));
    const auto loop = a.newLabel();
    a.bind(loop);
    for (int k = 0; k < 4; ++k) {
        a.load(9, RegionReg, quadOffset(rng));
        a.add(12, 9);
    }
    for (int k = 0; k < 2; ++k)
        a.store(RegionReg, quadOffset(rng), 12);
    a.movri(9, 1);
    a.lockXadd(RegionReg, quadOffset(rng), 9);
    for (int k = 0; k < 10; ++k) {
        switch (k % 4) {
          case 0: a.addi(12, 0x55); break;
          case 1: a.xori(12, 0x33); break;
          case 2: a.shli(12, 1); break;
          default: a.shri(12, 1); break;
        }
    }
    a.subi(14, 1);
    a.cmpri(14, 0);
    a.jcc(Cond::Gt, loop);

    // r3 survives the call: the guest twin clobbers r0-r2 and r7-r12.
    emitChecksum(a, rng, 3);
    a.movri(1, static_cast<std::int64_t>(text));
    a.movri(2, static_cast<std::int64_t>(message.size()));
    a.callImport("sha256");
    a.muli(3, 31);
    a.xor_(3, 0);
    emitPrintAndExit(a, 3, 2);
    return a.finish("main");
}

} // namespace perfbench
