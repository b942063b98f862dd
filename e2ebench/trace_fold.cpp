#include "trace_fold.hpp"

#include <stdexcept>

#include "json.hpp"

namespace e2e {

namespace {

struct Frame
{
    std::string name;
    double begin_s;
    double child_s = 0.0;
};

} // namespace

const SpanTotals&
FoldedTrace::span(const std::string& name) const
{
    static const SpanTotals kEmpty;
    const auto it = spans.find(name);
    return it == spans.end() ? kEmpty : it->second;
}

FoldedTrace
foldChromeTrace(const std::string& json)
{
    const Json doc = parseJson(json);
    const Json* events = doc.get("traceEvents");
    if (events == nullptr || events->type != Json::Type::Array) {
        throw std::runtime_error("trace json: no traceEvents array");
    }
    FoldedTrace folded;
    // tid 1 is the trainer lane; tids 0 (main) and 2 (io) share a stack.
    std::vector<Frame> stacks[2];
    for (const Json& e : events->items) {
        const Json* ph = e.get("ph");
        if (ph == nullptr || (ph->str != "B" && ph->str != "E")) {
            continue; // metadata and instants carry no duration
        }
        const Json* tid = e.get("tid");
        const Json* args = e.get("args");
        const Json* wall = args != nullptr ? args->get("wall_us") : nullptr;
        if (tid == nullptr || wall == nullptr) {
            throw std::runtime_error(
                "trace json: span without tid or wall_us (was the tracer "
                "built with capture_wall?)");
        }
        const double wall_s = wall->number * 1e-6;
        auto& stack = stacks[tid->number == 1.0 ? 1 : 0];
        if (ph->str == "B") {
            const Json* name = e.get("name");
            SpanTotals& totals = folded.spans[name != nullptr ? name->str
                                                              : ""];
            for (const auto& [key, value] : args->fields) {
                if (key != "wall_us" && value.type == Json::Type::Number) {
                    totals.arg_sums[key] += value.number;
                }
            }
            stack.push_back({name != nullptr ? name->str : "", wall_s});
            continue;
        }
        if (stack.empty()) {
            throw std::runtime_error("trace json: unbalanced span end");
        }
        const Frame frame = stack.back();
        stack.pop_back();
        const double dur = wall_s - frame.begin_s;
        SpanTotals& totals = folded.spans[frame.name];
        ++totals.count;
        totals.total_s += dur;
        totals.self_s += dur - frame.child_s;
        totals.durations_s.push_back(dur);
        if (!stack.empty()) {
            stack.back().child_s += dur;
        }
    }
    if (!stacks[0].empty() || !stacks[1].empty()) {
        throw std::runtime_error("trace json: unclosed span");
    }
    return folded;
}

} // namespace e2e
