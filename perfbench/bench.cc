#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "dbt/frontend.hh"
#include "gen.hh"
#include "gx86/decoded.hh"
#include "gx86/interp.hh"
#include "gx86/memory.hh"
#include "risotto/risotto.hh"
#include "serve/manager.hh"
#include "support/error.hh"
#include "tcg/optimizer.hh"
#include "trace.hh"
#include "verify/verifier.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace risotto;
using support::HostIsa;

namespace
{

/** Guest threads of every suite-steady proxy run. */
constexpr std::size_t SuiteThreads = 4;

/** Guest threads of every serve-warm session. */
constexpr std::size_t ServeThreads = 2;

/** Images per cold-image run; each runs on both hosts per pass. */
constexpr std::size_t ColdImages = 4;

/** Sessions per serve-warm batch (one batch per pass). */
constexpr std::size_t ServeBatch = 96;

/** The engine as risotto-run and risotto-serve run it with no flags:
 * the Risotto preset plus the template tier both CLIs turn on. */
dbt::DbtConfig
engineConfig(HostIsa host)
{
    dbt::DbtConfig config = dbt::DbtConfig::risotto();
    config.templateTier = true;
    config.host = host;
    return config;
}

EmulatorOptions
emulatorOptions(HostIsa host)
{
    EmulatorOptions options;
    options.config = engineConfig(host);
    return options;
}

std::size_t
serveJobs()
{
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/** What the reference interpreter computes for one guest program. */
struct Reference
{
    std::vector<std::int64_t> exitCodes;
    std::vector<std::string> outputs;
    /** Exact retired guest instructions, summed over threads. */
    std::uint64_t guestInsns = 0;
};

/**
 * Interpret each guest thread on its own (tid in r0). Exact for these
 * programs: threads share no data, so no LOCK RMW ever retries. Only
 * Interpreter::run is timed; the constructor zero-fills guest memory.
 */
Reference
interpret(const gx86::GuestImage &image, std::size_t threads,
          const std::shared_ptr<const gx86::DecodedSegment> &segment,
          Tracer *tracer = nullptr, const Scope *parent = nullptr,
          std::uint64_t owner = 0, double *run_seconds = nullptr)
{
    Reference ref;
    for (std::size_t t = 0; t < threads; ++t) {
        gx86::Interpreter interp(image, segment);
        interp.setReg(0, t);
        gx86::InterpResult result;
        {
            const Scope span(tracer, "interp.run", owner, parent);
            result = interp.run();
            if (run_seconds)
                *run_seconds += span.elapsed();
        }
        ref.exitCodes.push_back(result.exitCode);
        ref.outputs.push_back(result.output);
        ref.guestInsns += result.instructions;
    }
    return ref;
}

/** One guest program of a pass: an image on a host. */
struct Program
{
    std::string name;
    std::uint64_t id = 0;
    const gx86::GuestImage *image = nullptr;
    HostIsa host = HostIsa::Aarch;
    std::size_t threads = 1;
    const Reference *ref = nullptr;
    /** Makespan of the first run; every later run must repeat it. */
    std::optional<std::uint64_t> makespan;
};

/** End-to-end accumulators (untraced passes). */
struct EndToEnd
{
    Samples setup;
    Samples coldStart;
    double runSeconds = 0;
    std::uint64_t guestInsns = 0;
    std::uint64_t units = 0;
    double unitSeconds = 0;
    std::uint64_t simCycles = 0; ///< One pass's makespans.
    Samples passMips;            ///< guest_mips of each pass.
    Samples passRate;            ///< sessions_per_s of each pass.
};

/** Per-layer accumulators (traced passes). */
struct Layers
{
    std::uint64_t units = 0; ///< Programs or sessions traced.
    StatSet stats;           ///< Merged run/session counters.
    std::uint64_t guestInsns = 0;
    std::uint64_t tier2Superblocks = 0;
    std::uint64_t tier2Subsumed = 0;
    double runSeconds = 0;
    double memoryInRunSeconds = 0;

    Samples memorySetup;
    std::uint64_t dirtyPages = 0;

    Samples predecode;
    double predecodeSeconds = 0;
    std::uint64_t predecodeBytes = 0;
    std::uint64_t predecodeEntries = 0;

    std::uint64_t translatePrograms = 0;
    std::uint64_t tbs = 0;
    double translateSeconds = 0;
    Samples firstDispatch;
    std::uint64_t templateBlocks = 0;
    std::uint64_t tbsTranslated = 0;

    std::uint64_t walks = 0;
    std::uint64_t walkTbs = 0;
    double frontendSeconds = 0;
    double optimizerSeconds = 0;
    double backendSeconds = 0;
    std::uint64_t irPre = 0;
    std::uint64_t irPost = 0;
    std::uint64_t hostWords = 0;
    StatSet opt;
    std::uint64_t validatedTbs = 0;
    double validatorSeconds = 0;
    std::uint64_t pairsChecked = 0;

    Samples snapshotImport;
    std::uint64_t recordsLoaded = 0;
    std::uint64_t recordsRejected = 0;

    double interpSeconds = 0;
    std::uint64_t interpInsns = 0;
    double estimateRatio = 0;
    std::uint64_t estimateSamples = 0;

    Samples session;
    double sessionSeconds = 0;
    double batchSeconds = 0;
    std::uint64_t sharedHits = 0;
    std::uint64_t sharedLookups = 0;
    std::uint64_t jumpCacheMisses = 0;
    std::uint64_t retries = 0;

    double tracedUnitSeconds = 0;
    std::uint64_t tracedUnits = 0;
    double untracedUnitSeconds = 0;
    std::uint64_t untracedUnits = 0;
};

/** Shared state of one workload run. */
struct Run
{
    Options options;
    Tracer tracer;
    Outcome outcome;
    EndToEnd e2e;
    Layers layers;

    /** Count one checked guest run; record why it failed, if it did. */
    void
    check(bool ok, const std::string &what)
    {
        ++outcome.attempted;
        if (!ok) {
            ++outcome.failed;
            if (outcome.failures.size() < 20)
                outcome.failures.push_back(what);
        }
    }

    /** Check exit codes, outputs and the makespan of @p program. */
    void
    checkResult(Program &program, bool finished,
                const std::vector<std::int64_t> &exit_codes,
                const std::vector<std::string> &outputs,
                std::uint64_t makespan, const std::string &label)
    {
        bool ok = finished && exit_codes == program.ref->exitCodes &&
                  outputs == program.ref->outputs;
        std::string what = label + ": result differs from the reference";
        if (ok && program.makespan && *program.makespan != makespan) {
            ok = false;
            what = label + ": simulated cycles differ between repetitions";
        }
        if (!program.makespan)
            program.makespan = makespan;
        check(ok, what);
    }
};

void
setMetric(Outcome &out, const std::string &name, double value,
          const std::string &unit, std::uint64_t samples)
{
    out.metrics[name] = {value, unit, samples};
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Pages of @p after whose bytes differ from @p before. */
std::uint64_t
changedPages(const gx86::Memory &before, const gx86::Memory &after)
{
    const std::size_t size = std::min(before.size(), after.size());
    const std::uint8_t *a = before.raw(0, size);
    const std::uint8_t *b = after.raw(0, size);
    std::uint64_t pages = 0;
    for (std::size_t off = 0; off < size; off += gx86::Memory::PageSize) {
        const std::size_t len = std::min(gx86::Memory::PageSize, size - off);
        if (std::memcmp(a + off, b + off, len) != 0)
            ++pages;
    }
    return pages;
}

/** Exit slots for compiling outside an engine: numbers the exits. */
struct WalkSlots : dbt::ExitSlotAllocator
{
    std::uint32_t next = 1;
    std::uint32_t staticSlot(std::uint64_t, std::uint64_t, aarch::CodeAddr,
                             bool) override
    {
        return next++;
    }
    std::uint32_t dynamicSlot() override { return 0; }
};

/**
 * Lower every statically reachable block of @p engine's image through
 * the tier-1 layers one call at a time -- Frontend::translate,
 * tcg::optimize, Backend::compile and, with @p validate,
 * TbValidator::validate -- timing each call.
 */
void
walkLayers(Run &run, const dbt::Dbt &engine, bool validate,
           std::uint64_t owner, const Scope &parent)
{
    Tracer *tracer = &run.tracer;
    Layers &L = run.layers;
    const dbt::DbtConfig config = engine.config();
    dbt::Frontend frontend(engine.image(), config, engine.resolver());
    frontend.setSegment(engine.segment().get());
    aarch::CodeBuffer buffer;
    WalkSlots slots;
    dbt::Backend backend(buffer, config);
    verify::ValidatorOptions vo;
    vo.rmw = config.rmw;
    const verify::TbValidator validator(vo);

    const Scope walk(tracer, "layers", owner, &parent);
    for (const gx86::Addr pc : dbt::reachableBlocks(
             engine.image(), config, engine.segment().get())) {
        tcg::Block block;
        {
            const Scope span(tracer, "frontend", owner, &walk);
            block = frontend.translate(pc);
            L.frontendSeconds += span.elapsed();
        }
        L.irPre += block.instrs.size();
        {
            const Scope span(tracer, "optimizer", owner, &walk);
            tcg::optimize(block, config.optimizer, &L.opt);
            L.optimizerSeconds += span.elapsed();
        }
        L.irPost += block.instrs.size();
        aarch::CodeAddr entry = 0;
        {
            const Scope span(tracer, "backend", owner, &walk);
            entry = backend.compile(block, slots);
            L.backendSeconds += span.elapsed();
        }
        L.hostWords += buffer.end() - entry;
        ++L.walkTbs;
        if (validate) {
            const auto guest = frontend.decodeBlock(pc);
            const auto host = verify::decodeHostRange(config.host, buffer,
                                                      entry, buffer.end());
            verify::ValidationReport report;
            {
                const Scope span(tracer, "validator", owner, &walk);
                report = validator.validate(guest, block, host, pc, false);
                L.validatorSeconds += span.elapsed();
            }
            ++L.validatedTbs;
            L.pairsChecked += report.pairsChecked;
            run.check(report.ok(), "validator: ordering violation in block " +
                                       std::to_string(pc));
        }
        frontend.recycle(std::move(block));
    }
    ++L.walks;
}

/** Pre-decode @p image as a fresh engine does, timed. */
std::shared_ptr<const gx86::DecodedSegment>
predecode(Run &run, const gx86::GuestImage &image, std::uint64_t owner,
          const Scope &parent)
{
    const Scope span(&run.tracer, "predecode", owner, &parent);
    auto segment = gx86::DecodedSegment::build(image);
    Layers &L = run.layers;
    L.predecode.add(span.elapsed());
    L.predecodeSeconds += span.elapsed();
    L.predecodeBytes += image.text.size();
    L.predecodeEntries += segment->validEntries();
    return segment;
}

void
absorbRunStats(Layers &L, const dbt::RunResult &result,
               std::uint64_t guest_insns)
{
    L.stats.merge(result.stats);
    L.guestInsns += guest_insns;
    L.tier2Superblocks += result.tier2Superblocks;
    L.tier2Subsumed += result.tier2BlocksSubsumed;
    ++L.units;
}

/** Untraced: fresh Emulator, first engine(), run to guest exit. */
void
runProgram(Run &run, Program &program)
{
    gx86::GuestImage image = *program.image;
    const Clock::time_point start = Clock::now();
    Emulator emulator(std::move(image), emulatorOptions(program.host));
    emulator.engine();
    const double setup = secondsSince(start);
    const Clock::time_point run_start = Clock::now();
    const dbt::RunResult result = emulator.run(program.threads);
    const double run_seconds = secondsSince(run_start);
    const double total = secondsSince(start);

    run.checkResult(program, result.finished, result.exitCodes,
                    result.outputs, result.makespan, program.name);
    EndToEnd &E = run.e2e;
    E.setup.add(setup);
    E.coldStart.add(total);
    E.runSeconds += run_seconds;
    E.guestInsns += program.ref->guestInsns;
    ++E.units;
    E.unitSeconds += total;
    run.layers.untracedUnitSeconds += total;
    ++run.layers.untracedUnits;
}

/**
 * Traced: the same calls in spans, with the translation of every
 * reachable block moved ahead of the run (one lookupOrTranslate span
 * each) and the run's guest-memory setup repeated beside it.
 */
void
traceProgram(Run &run, Program &program, bool walk)
{
    Tracer *tracer = &run.tracer;
    Layers &L = run.layers;
    const Scope top(tracer, "program", program.id);
    std::optional<Emulator> emulator;
    double unit = 0;
    {
        gx86::GuestImage image = *program.image;
        const Scope span(tracer, "setup", program.id, &top);
        emulator.emplace(std::move(image), emulatorOptions(program.host));
        emulator->engine();
        unit += span.elapsed();
    }
    dbt::Dbt &engine = emulator->engine();
    {
        const auto heads = dbt::reachableBlocks(engine.image(),
                                                engine.config(),
                                                engine.segment().get());
        const Scope span(tracer, "translate", program.id, &top);
        for (const gx86::Addr pc : heads) {
            const Scope one(tracer, "lookupOrTranslate", program.id, &span);
            engine.lookupOrTranslate(pc);
            if (pc == engine.image().entry)
                L.firstDispatch.add(one.elapsed());
        }
        L.tbs += heads.size();
        L.translateSeconds += span.elapsed();
        unit += span.elapsed();
        ++L.translatePrograms;
        L.templateBlocks += engine.stats().get("dbt.template_blocks");
        L.tbsTranslated += engine.stats().get("dbt.tbs_translated");
    }
    std::optional<gx86::Memory> pristine;
    {
        const Scope span(tracer, "memory", program.id, &top);
        pristine.emplace();
        pristine->loadImage(*program.image);
        L.memorySetup.add(span.elapsed());
        L.memoryInRunSeconds += span.elapsed();
    }
    dbt::RunResult result;
    {
        const Scope span(tracer, "run", program.id, &top);
        result = emulator->run(program.threads);
        L.runSeconds += span.elapsed();
        unit += span.elapsed();
    }
    run.checkResult(program, result.finished, result.exitCodes,
                    result.outputs, result.makespan,
                    program.name + " (traced)");
    absorbRunStats(L, result, program.ref->guestInsns);
    if (result.memory)
        L.dirtyPages += changedPages(*pristine, *result.memory);
    L.estimateRatio += ratio(engine.guestInsnEstimate(),
                             program.ref->guestInsns);
    ++L.estimateSamples;
    L.tracedUnitSeconds += unit;
    ++L.tracedUnits;

    if (walk) {
        const Scope probes(tracer, "probes", program.id, &top);
        const auto segment =
            predecode(run, *program.image, program.id, probes);
        walkLayers(run, engine, false, program.id, probes);
        const Reference ref =
            interpret(*program.image, program.threads, segment, tracer,
                      &probes, program.id, &L.interpSeconds);
        L.interpInsns += ref.guestInsns;
        run.check(ref.exitCodes == program.ref->exitCodes &&
                      ref.outputs == program.ref->outputs,
                  program.name + ": reference interpreter not repeatable");
    }
}

/** Run passes of @p pass until the measurement time is used up. */
template <typename PassFn>
void
measure(Run &run, PassFn pass)
{
    EndToEnd &E = run.e2e;
    const Clock::time_point start = Clock::now();
    const std::size_t min_passes = run.options.trace ? 2 : 1;
    for (std::size_t n = 0;
         n < min_passes || secondsSince(start) < run.options.seconds; ++n) {
        const std::uint64_t insns = E.guestInsns;
        const double run_seconds = E.runSeconds;
        const std::uint64_t units = E.units;
        const double unit_seconds = E.unitSeconds;
        // Traced runs alternate: even passes untraced (the overhead
        // baseline), odd passes traced.
        pass(n, run.options.trace && n % 2 == 1);
        if (E.units == units)
            continue;
        // Throughputs are medians over passes, so a stretch of a run
        // on a slowed host moves them less than a run-wide ratio.
        E.passMips.add(
            ratio(E.guestInsns - insns, E.runSeconds - run_seconds) / 1e6);
        E.passRate.add(ratio(E.units - units, E.unitSeconds - unit_seconds));
    }
}

// --- suite-steady ----------------------------------------------------------

void
suiteSteady(Run &run)
{
    const auto specs = workloads::fullSuite();
    std::deque<gx86::GuestImage> images;
    std::deque<Reference> refs;
    for (const auto &spec : specs) {
        images.push_back(workloads::buildGuestWorkload(spec));
        refs.push_back(interpret(images.back(), SuiteThreads,
                                 gx86::DecodedSegment::build(images.back())));
    }
    std::vector<Program> programs;
    auto order = suiteOrder(run.options.seed);
    if (run.options.smoke)
        order.resize(4);
    for (const SuiteEntry &entry : order) {
        Program p;
        p.name = specs[entry.proxy].name + "/" +
                 support::hostIsaName(entry.host);
        p.id = programs.size();
        p.image = &images[entry.proxy];
        p.host = entry.host;
        p.threads = SuiteThreads;
        p.ref = &refs[entry.proxy];
        programs.push_back(p);
    }
    measure(run, [&](std::size_t pass, bool traced) {
        for (Program &p : programs) {
            if (traced)
                // Probe each image once per pass, always on aarch: the
                // backend numbers then never mix hosts in a seeded ratio.
                traceProgram(run, p, p.host == HostIsa::Aarch);
            else
                runProgram(run, p);
        }
        if (pass == 0)
            for (const Program &p : programs)
                run.e2e.simCycles += p.makespan.value_or(0);
    });
}

// --- cold-image ------------------------------------------------------------

void
coldImages(Run &run)
{
    ImageShape shape;
    std::size_t count = ColdImages;
    if (run.options.smoke) {
        shape.onceBlocks = 200;
        count = 1;
    }
    std::deque<gx86::GuestImage> images;
    std::deque<Reference> refs;
    std::vector<Program> programs;
    for (std::size_t i = 0; i < count; ++i) {
        images.push_back(coldImage(run.options.seed, i, shape));
        refs.push_back(interpret(images.back(), 1,
                                 gx86::DecodedSegment::build(images.back())));
        for (const HostIsa host : {HostIsa::Aarch, HostIsa::Rv64}) {
            Program p;
            p.name = "cold" + std::to_string(i) + "/" +
                     support::hostIsaName(host);
            p.id = programs.size();
            p.image = &images.back();
            p.host = host;
            p.ref = &refs.back();
            programs.push_back(p);
        }
    }
    measure(run, [&](std::size_t pass, bool traced) {
        for (Program &p : programs) {
            if (traced)
                // Probe each image once per pass: on its aarch program.
                traceProgram(run, p, p.host == HostIsa::Aarch);
            else
                runProgram(run, p);
        }
        if (pass == 0)
            for (const Program &p : programs)
                run.e2e.simCycles += p.makespan.value_or(0);
    });
}

// --- serve-warm ------------------------------------------------------------

void
checkSession(Run &run, Program &program, const serve::SessionResult &s)
{
    run.checkResult(program, s.kind == serve::FailureKind::None,
                    s.exitCodes, s.outputs, s.makespan,
                    "session " + std::to_string(s.id));
}

void
absorbSession(Layers &L, const serve::SessionResult &s,
              std::uint64_t guest_insns)
{
    L.stats.merge(s.stats);
    L.guestInsns += guest_insns;
    L.dirtyPages += s.dirtyPages;
    const std::uint64_t lookups =
        s.sharedHits + s.stats.get("serve.fallback_blocks");
    L.sharedHits += s.sharedHits;
    L.sharedLookups += lookups;
    L.jumpCacheMisses += s.sharedMisses;
    L.retries += s.attempts - 1;
    ++L.units;
}

void
serveWarm(Run &run)
{
    Tracer *tracer = &run.tracer;
    Layers &L = run.layers;
    EndToEnd &E = run.e2e;
    ImageShape shape = serveShape();
    std::size_t batch = ServeBatch;
    if (run.options.smoke) {
        shape.onceBlocks = 40;
        shape.loopIterations = 20;
        batch = 8;
    }
    const std::size_t jobs = serveJobs();
    const gx86::GuestImage image = serveImage(run.options.seed, shape);
    const Reference ref = interpret(image, ServeThreads,
                                    gx86::DecodedSegment::build(image));
    Program program;
    program.name = "serve";
    program.image = &image;
    program.threads = ServeThreads;
    program.ref = &ref;

    // Preparation: one run on a fresh engine produces the snapshot.
    const std::string snapshot = run.options.workDir + "/serve-warm-" +
                                 std::to_string(run.options.seed) + ".rtbc";
    {
        Emulator emulator(image, emulatorOptions(HostIsa::Aarch));
        const dbt::RunResult result = emulator.run(ServeThreads);
        run.check(result.finished && result.exitCodes == ref.exitCodes &&
                      result.outputs == ref.outputs,
                  "serve: snapshot-producing run differs from the reference");
        if (!emulator.engine().savePersistentCache(snapshot))
            fatal("serve: could not write the snapshot " + snapshot);
        L.estimateRatio +=
            ratio(emulator.engine().guestInsnEstimate(), ref.guestInsns);
        ++L.estimateSamples;
    }
    serve::ArtifactConfig artifact_config;
    artifact_config.config = engineConfig(HostIsa::Aarch);
    artifact_config.snapshotPath = snapshot;
    serve::SessionOptions session_options;
    session_options.threads = ServeThreads;
    session_options.seed = run.options.seed;

    // Each pass prepares a fresh warm artifact, so set-up is sampled
    // once per pass; untraced passes then serve one session alone (cold
    // start: fresh service to first finished session) and one batch.
    auto prepare = [&]() {
        gx86::GuestImage copy = image;
        auto artifact = std::make_unique<serve::SharedArtifact>(
            std::move(copy), artifact_config);
        run.check(artifact->mode() == serve::ArtifactMode::Warm &&
                      artifact->persistReport().rejected == 0,
                  "serve: artifact did not load the snapshot warm");
        return artifact;
    };
    measure(run, [&](std::size_t pass, bool traced) {
        if (!traced) {
            const Clock::time_point start = Clock::now();
            const auto artifact = prepare();
            const double setup = secondsSince(start);
            const serve::SessionResult first =
                serve::runSession(*artifact, 0, session_options);
            E.coldStart.add(secondsSince(start));
            E.setup.add(setup);
            checkSession(run, program, first);

            serve::ServeConfig config;
            config.sessions = batch;
            config.jobs = jobs;
            config.session = session_options;
            const Clock::time_point batch_start = Clock::now();
            const serve::ServeReport report =
                serve::runSessions(*artifact, config);
            const double wall = secondsSince(batch_start);
            for (const serve::SessionResult &s : report.sessions)
                checkSession(run, program, s);
            if (pass == 0)
                for (const serve::SessionResult &s : report.sessions)
                    E.simCycles += s.makespan;
            E.units += batch;
            E.unitSeconds += wall;
            E.runSeconds += wall;
            E.guestInsns += batch * ref.guestInsns;
            L.untracedUnitSeconds += wall * static_cast<double>(jobs);
            L.untracedUnits += batch;
            return;
        }

        const Scope top(tracer, "serve.pass", pass);
        std::unique_ptr<serve::SharedArtifact> artifact;
        {
            const Scope span(tracer, "prepare", pass, &top);
            artifact = prepare();
        }
        {
            const Scope probes(tracer, "probes", pass, &top);
            Emulator emulator(image, emulatorOptions(HostIsa::Aarch));
            dbt::Dbt &engine = emulator.engine();
            dbt::PersistReport report;
            {
                const Scope span(tracer, "snapshot.import", pass, &probes);
                report = engine.loadPersistentCache(snapshot);
                L.snapshotImport.add(span.elapsed());
            }
            L.recordsLoaded += report.loaded;
            L.recordsRejected += report.rejected;
            const auto segment = predecode(run, image, pass, probes);
            walkLayers(run, engine, true, pass, probes);
            interpret(image, ServeThreads, segment, tracer, &probes, pass,
                      &L.interpSeconds);
            L.interpInsns += ref.guestInsns;
        }

        // Closed loop: each of `jobs` client threads takes the next
        // session as soon as its previous one returns.
        std::atomic<std::size_t> next{0};
        std::vector<serve::SessionResult> results(batch);
        std::vector<double> seconds(batch);
        std::vector<double> fork_seconds(batch);
        const Scope sessions(tracer, "sessions", pass, &top);
        {
            std::vector<std::jthread> clients;
            for (std::size_t j = 0; j < jobs; ++j)
                clients.emplace_back([&, j] {
                    const Scope client(tracer, "client", j, &sessions);
                    for (std::size_t id = next++; id < batch; id = next++) {
                        {
                            const Scope span(tracer, "memory", id, &client);
                            const gx86::Memory fork = gx86::Memory::fork(
                                artifact->templateMemory());
                            fork_seconds[id] = span.elapsed();
                        }
                        const Scope span(tracer, "session", id, &client);
                        results[id] =
                            serve::runSession(*artifact, id, session_options);
                        seconds[id] = span.elapsed();
                    }
                });
        }
        const double busy = sessions.elapsed() * static_cast<double>(jobs);
        L.batchSeconds += busy;
        // The probe forks are the benchmark's own work, not tracing
        // overhead: the untraced batch does none.
        double forks = 0;
        for (const double f : fork_seconds)
            forks += f;
        L.tracedUnitSeconds += busy - forks;
        L.tracedUnits += batch;
        for (std::size_t id = 0; id < batch; ++id) {
            checkSession(run, program, results[id]);
            absorbSession(L, results[id], ref.guestInsns);
            L.session.add(seconds[id]);
            L.sessionSeconds += seconds[id];
            L.memorySetup.add(fork_seconds[id]);
            L.memoryInRunSeconds += fork_seconds[id];
            L.runSeconds += seconds[id];
        }
    });
    std::remove(snapshot.c_str());
}

// --- Reports ---------------------------------------------------------------

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
reportEndToEnd(Run &run)
{
    const EndToEnd &E = run.e2e;
    Outcome &out = run.outcome;
    setMetric(out, "setup_s", E.setup.median(), "s", E.setup.size());
    const Tail setup_tail = E.setup.tail();
    setMetric(out, "setup_s.tail", setup_tail.value, "s", E.setup.size());
    setMetric(out, "guest_mips", E.passMips.median(), "Minsn/s",
              E.passMips.size());
    setMetric(out, "cold_start_s", E.coldStart.median(), "s",
              E.coldStart.size());
    const Tail cold_tail = E.coldStart.tail();
    setMetric(out, "cold_start_s.tail", cold_tail.value, "s",
              E.coldStart.size());
    setMetric(out, "sessions_per_s", E.passRate.median(), "1/s",
              E.passRate.size());
    setMetric(out, "sim_mcycles", static_cast<double>(E.simCycles) / 1e6,
              "Mcycles", 1);
    setMetric(out, "peak_rss_mb", peakRssMiB(), "MiB", 1);
    setMetric(out, "ok_frac",
              1.0 - ratio(out.failed, out.attempted), "ratio",
              out.attempted);
    // Which percentile each tail is, for the human-readable table.
    out.metrics["setup_s.tail_pct"] = {setup_tail.percentile, "%",
                                       setup_tail.beyond};
    out.metrics["cold_start_s.tail_pct"] = {cold_tail.percentile, "%",
                                            cold_tail.beyond};
}

void
reportLayers(Run &run)
{
    const Layers &L = run.layers;
    Outcome &out = run.outcome;
    const double units = static_cast<double>(L.units);
    auto perUnit = [&](const std::string &name, const std::string &stat,
                       const std::string &unit = "count") {
        setMetric(out, name, ratio(L.stats.get(stat), units), unit, L.units);
    };

    setMetric(out, "memory.setup_ms", L.memorySetup.median() * 1e3, "ms",
              L.memorySetup.size());
    setMetric(out, "memory.dirty_pages", ratio(L.dirtyPages, units), "pages",
              L.units);

    setMetric(out, "predecode.ms", L.predecode.median() * 1e3, "ms",
              L.predecode.size());
    setMetric(out, "predecode.ns_per_byte",
              ratio(L.predecodeSeconds * 1e9, L.predecodeBytes), "ns/B",
              L.predecode.size());
    setMetric(out, "predecode.entries",
              ratio(L.predecodeEntries, L.predecode.size()), "count",
              L.predecode.size());

    const double programs = static_cast<double>(L.translatePrograms);
    setMetric(out, "translate.tbs", ratio(L.tbs, programs), "count",
              L.translatePrograms);
    setMetric(out, "translate.us_per_tb",
              ratio(L.translateSeconds * 1e6, L.tbs), "us", L.tbs);
    setMetric(out, "translate.first_dispatch_us",
              L.firstDispatch.median() * 1e6, "us", L.firstDispatch.size());
    setMetric(out, "template.blocks", ratio(L.templateBlocks, programs),
              "count", L.translatePrograms);
    setMetric(out, "template.hit_ratio",
              ratio(L.templateBlocks, L.tbsTranslated), "ratio",
              L.tbsTranslated);

    setMetric(out, "frontend.us_per_tb",
              ratio(L.frontendSeconds * 1e6, L.walkTbs), "us", L.walkTbs);
    setMetric(out, "ir.ops_pre_opt", ratio(L.irPre, L.walkTbs), "ops/tb",
              L.walkTbs);
    setMetric(out, "optimizer.us_per_tb",
              ratio(L.optimizerSeconds * 1e6, L.walkTbs), "us", L.walkTbs);
    setMetric(out, "ir.ops_post_opt", ratio(L.irPost, L.walkTbs), "ops/tb",
              L.walkTbs);
    for (const char *name :
         {"opt.fences_merged", "opt.mem_ops_eliminated",
          "opt.dead_ops_removed"})
        setMetric(out, name, ratio(L.opt.get(name), L.walks), "count",
                  L.walks);
    setMetric(out, "backend.us_per_tb",
              ratio(L.backendSeconds * 1e6, L.walkTbs), "us", L.walkTbs);
    setMetric(out, "backend.host_words", ratio(L.hostWords, L.walkTbs),
              "words/tb", L.walkTbs);
    setMetric(out, "validator.us_per_tb",
              ratio(L.validatorSeconds * 1e6, L.validatedTbs), "us",
              L.validatedTbs);
    setMetric(out, "validator.pairs_checked",
              ratio(L.pairsChecked, L.validatedTbs), "pairs/tb",
              L.validatedTbs);

    setMetric(out, "snapshot.import_ms", L.snapshotImport.median() * 1e3,
              "ms", L.snapshotImport.size());
    const double imports = static_cast<double>(L.snapshotImport.size());
    setMetric(out, "snapshot.records_loaded", ratio(L.recordsLoaded, imports),
              "count", L.snapshotImport.size());
    setMetric(out, "snapshot.records_rejected",
              ratio(L.recordsRejected, imports), "count",
              L.snapshotImport.size());

    perUnit("dispatch.tb_exits", "machine.tb_exits");
    perUnit("dispatch.chained", "dbt.chained");
    const double jc_hits = L.stats.get("dbt.jump_cache_hits");
    const double jc_all = jc_hits + L.stats.get("dbt.jump_cache_misses");
    // Engine runs count jump-cache hits; sessions count shared lookups
    // and private jump-cache misses.
    const double jc_ratio =
        L.sharedLookups > 0
            ? ratio(L.sharedLookups - std::min(L.jumpCacheMisses,
                                               L.sharedLookups),
                    L.sharedLookups)
            : ratio(jc_hits, jc_all);
    setMetric(out, "dispatch.jump_cache_hit_ratio", jc_ratio, "ratio",
              L.units);
    setMetric(out, "tier2.superblocks", ratio(L.tier2Superblocks, units),
              "count", L.units);
    setMetric(out, "tier2.blocks_subsumed", ratio(L.tier2Subsumed, units),
              "count", L.units);

    const double host_insns = L.stats.get("machine.instructions");
    setMetric(out, "machine.host_insns", ratio(host_insns, units), "count",
              L.units);
    setMetric(out, "machine.host_per_guest_insn",
              ratio(host_insns, L.guestInsns), "ratio", L.units);
    setMetric(out, "machine.ns_per_host_insn",
              ratio((L.runSeconds - L.memoryInRunSeconds) * 1e9, host_insns),
              "ns", L.units);
    perUnit("machine.fences_full", "machine.dmb_full");
    perUnit("machine.fences_ld", "machine.dmb_ld");
    perUnit("machine.fences_st", "machine.dmb_st");
    perUnit("machine.drains", "machine.drains");
    perUnit("machine.line_transfers", "machine.line_transfers");
    perUnit("machine.tb_exit_cycles", "machine.tb_exit_cycles", "cycles");

    perUnit("helpers.calls", "machine.helper_calls");
    perUnit("hostcalls.calls", "dbt.host_calls");

    perUnit("fallback.guest_insns", "dbt.fallback_instructions");
    setMetric(out, "interp.ns_per_guest_insn",
              ratio(L.interpSeconds * 1e9, L.interpInsns), "ns",
              L.interpInsns);
    setMetric(out, "dbt.insn_estimate_ratio",
              ratio(L.estimateRatio, L.estimateSamples), "ratio",
              L.estimateSamples);

    setMetric(out, "session.ms", L.session.median() * 1e3, "ms",
              L.session.size());
    const Tail session_tail = L.session.tail();
    setMetric(out, "session.ms.tail", session_tail.value * 1e3, "ms",
              L.session.size());
    out.metrics["session.ms.tail_pct"] = {session_tail.percentile, "%",
                                          session_tail.beyond};
    setMetric(out, "serve.busy_frac", ratio(L.sessionSeconds, L.batchSeconds),
              "ratio", L.session.size());
    setMetric(out, "serve.shared_hit_ratio",
              ratio(L.sharedHits, L.sharedLookups), "ratio",
              L.session.size());
    setMetric(out, "serve.retries", static_cast<double>(L.retries), "count",
              L.session.size());

    const double traced = ratio(L.tracedUnitSeconds, L.tracedUnits);
    const double untraced = ratio(L.untracedUnitSeconds, L.untracedUnits);
    setMetric(out, "trace.overhead_pct", ratio(traced - untraced, untraced) *
                                             100.0,
              "%", L.tracedUnits);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-steady", "cold-image", "serve-warm"};
    return names;
}

Outcome
runWorkload(const Options &options)
{
    Run run;
    run.options = options;
    if (options.workload == "suite-steady")
        suiteSteady(run);
    else if (options.workload == "cold-image")
        coldImages(run);
    else if (options.workload == "serve-warm")
        serveWarm(run);
    else
        fatal("unknown workload '" + options.workload + "'");

    if (options.trace) {
        const std::vector<Span> spans = run.tracer.spans();
        if (!childrenNested(spans))
            run.outcome.failures.push_back(
                "trace: a child span lies outside its parent");
        for (const double self : selfTimesNs(spans))
            if (self < 0)
                run.outcome.failures.push_back("trace: negative self time");
        run.outcome.spanFile = options.workDir + "/trace-" +
                               options.workload + "-" +
                               std::to_string(options.seed) + ".json";
        std::ofstream file(run.outcome.spanFile);
        run.tracer.write(file);
        reportLayers(run);
        for (const auto &[name, totals] : totalsByName(spans))
            run.outcome.metrics["self_ms." + name] = {totals.selfMs, "ms",
                                                      totals.count};
    } else {
        reportEndToEnd(run);
    }
    return run.outcome;
}

} // namespace perfbench
