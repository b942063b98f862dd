#pragma once

/**
 * @file json.hpp
 * Just enough JSON for the benchmark's inputs: the tracer's trace-event
 * export and the BENCH_PR<N>.json ledgers.
 */

#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Json
{
    enum class Type { Null, Bool, Number, String, Array, Object } type =
        Type::Null;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;

    /** Field @p key of an object; nullptr when there is none. */
    const Json* get(const std::string& key) const;
};

/** Parse one JSON document. Throws std::runtime_error when malformed. */
Json parseJson(const std::string& text);

} // namespace e2e
