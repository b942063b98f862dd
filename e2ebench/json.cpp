#include "json.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace e2e {

namespace {

class Parser
{
  public:
    explicit Parser(const std::string& text) : s_(text) {}

    Json
    parseDocument()
    {
        Json value = parseValue();
        skipSpace();
        if (pos_ != s_.size()) {
            fail("trailing characters");
        }
        return value;
    }

  private:
    [[noreturn]] void
    fail(const char* what) const
    {
        throw std::runtime_error(std::string("json: ") + what +
                                 " at offset " + std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    void
    expect(char c)
    {
        skipSpace();
        if (pos_ >= s_.size() || s_[pos_] != c) {
            fail("unexpected character");
        }
        ++pos_;
    }

    /** Skip @p c (after whitespace) when it is next. */
    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char* word)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) == 0) {
            pos_ += w.size();
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) {
                    fail("bad escape");
                }
                c = s_[pos_++];
                switch (c) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    // Span names are ASCII; keep escapes opaque.
                    if (pos_ + 4 > s_.size()) {
                        fail("bad \\u escape");
                    }
                    pos_ += 4;
                    c = '?';
                    break;
                  default: break; // '"', '\\', '/'
                }
            }
            out.push_back(c);
        }
        expect('"');
        return out;
    }

    Json
    parseValue()
    {
        skipSpace();
        if (pos_ >= s_.size()) {
            fail("unexpected end");
        }
        Json v;
        const char c = s_[pos_];
        if (consume('{')) {
            v.type = Json::Type::Object;
            if (!consume('}')) {
                do {
                    std::string key = parseString();
                    expect(':');
                    v.fields.emplace_back(std::move(key), parseValue());
                } while (consume(','));
                expect('}');
            }
        } else if (consume('[')) {
            v.type = Json::Type::Array;
            if (!consume(']')) {
                do {
                    v.items.push_back(parseValue());
                } while (consume(','));
                expect(']');
            }
        } else if (c == '"') {
            v.type = Json::Type::String;
            v.str = parseString();
        } else if (consumeWord("true") || consumeWord("false")) {
            v.type = Json::Type::Bool;
        } else if (consumeWord("null")) {
            v.type = Json::Type::Null;
        } else {
            const char* begin = s_.c_str() + pos_;
            char* end = nullptr;
            v.type = Json::Type::Number;
            v.number = std::strtod(begin, &end);
            if (end == begin) {
                fail("bad number");
            }
            pos_ += static_cast<size_t>(end - begin);
        }
        return v;
    }

    const std::string& s_;
    size_t pos_ = 0;
};

} // namespace

const Json*
Json::get(const std::string& key) const
{
    for (const auto& [k, v] : fields) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

Json
parseJson(const std::string& text)
{
    return Parser(text).parseDocument();
}

} // namespace e2e
