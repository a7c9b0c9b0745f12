#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

void
Tracer::record(const Span &span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::int64_t
Tracer::sinceEpoch(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> out;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        out = spans_;
    }
    std::sort(out.begin(), out.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return out;
}

void
Tracer::write(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimesNs(all);
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
           << "\", \"owner\": " << s.owner << ", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs
           << ", \"self_ns\": " << static_cast<std::int64_t>(self[i]) << "}";
    }
    os << "\n]}\n";
}

Scope::Scope(Tracer *tracer, const char *name, std::uint64_t owner,
             const Scope *parent)
    : tracer_(tracer), name_(name), owner_(owner),
      parent_(parent ? parent->id_ : 0)
{
    if (tracer_)
        id_ = tracer_->begin();
    start_ = Clock::now();
}

Scope::~Scope()
{
    const Clock::time_point end = Clock::now();
    if (!tracer_)
        return;
    tracer_->record({id_, parent_, name_, owner_,
                     tracer_->sinceEpoch(start_), tracer_->sinceEpoch(end)});
}

std::vector<double>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.startNs, s.endNs);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.endNs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = static_cast<double>(s.endNs - s.startNs - covered);
    }
    return self;
}

bool
childrenNested(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, const Span *> byId;
    for (const Span &s : spans)
        byId[s.id] = &s;
    for (const Span &s : spans) {
        if (s.endNs < s.startNs)
            return false;
        if (s.parent == 0)
            continue;
        const auto it = byId.find(s.parent);
        if (it == byId.end())
            return false;
        if (s.startNs < it->second->startNs || s.endNs > it->second->endNs)
            return false;
    }
    return true;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesNs(spans);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = out[spans[i].name];
        ++t.count;
        t.totalMs += (spans[i].endNs - spans[i].startNs) / 1e6;
        t.selfMs += self[i] / 1e6;
    }
    return out;
}

double
Samples::median() const
{
    if (values_.empty())
        return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail
Samples::tail() const
{
    Tail out;
    if (values_.empty())
        return out;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        // Nearest-rank percentile.
        const auto rank = static_cast<std::size_t>(
            std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
        const std::size_t beyond = n - rank;
        if (beyond < 10 && out.percentile != 0)
            break;
        out = {p, v[rank - 1], beyond};
        if (beyond < 10)
            break;
    }
    return out;
}

} // namespace perfbench
