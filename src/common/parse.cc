#include "src/common/parse.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace pmill {

namespace {

/** from_chars over all of @p s: no leading space, '+' or "0x". */
template <typename T>
bool
whole(std::string_view s, T *v, int base = 10)
{
    const char *end = s.data() + s.size();
    std::from_chars_result r;
    if constexpr (std::is_floating_point_v<T>)
        r = std::from_chars(s.data(), end, *v);
    else
        r = std::from_chars(s.data(), end, *v, base);
    // Floating from_chars also takes "inf" and "nan".
    return r.ec == std::errc() && r.ptr == end &&
           std::isfinite(static_cast<double>(*v));
}

} // namespace

bool
read_uint(std::string_view s, std::uint64_t max, std::uint64_t *out,
          int base)
{
    std::uint64_t v = 0;
    if (!whole(s, &v, base) || v > max)
        return false;
    *out = v;
    return true;
}

bool
read_int(std::string_view s, std::int64_t lo, std::int64_t hi,
         std::int64_t *out)
{
    std::int64_t v = 0;
    if (!whole(s, &v) || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

bool
read_double(std::string_view s, double lo, double hi, double *out)
{
    double v = 0;
    if (!whole(s, &v) || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

bool
parse_json_object_line(const std::string &line, JsonObject *out)
{
    out->clear();
    std::size_t i = 0;
    const std::size_t n = line.size();
    auto skip_ws = [&] {
        while (i < n && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto parse_string = [&](std::string *s) -> bool {
        if (i >= n || line[i] != '"')
            return false;
        ++i;
        s->clear();
        while (i < n && line[i] != '"') {
            if (line[i] != '\\') {
                *s += line[i++];
                continue;
            }
            if (++i >= n)
                return false;
            switch (line[i]) {
              case '"': case '\\': case '/': *s += line[i]; break;
              case 'b': *s += '\b'; break;
              case 'f': *s += '\f'; break;
              case 'n': *s += '\n'; break;
              case 'r': *s += '\r'; break;
              case 't': *s += '\t'; break;
              case 'u': {
                // \uXXXX: json_escape emits only control characters
                // this way, so anything beyond ASCII is rejected.
                std::uint64_t cp = 0;
                if (i + 4 >= n ||
                    !read_uint(std::string_view(line).substr(i + 1, 4), 0x7F,
                               &cp, 16))
                    return false;
                *s += static_cast<char>(cp);
                i += 4;
                break;
              }
              default: return false;
            }
            ++i;
        }
        if (i >= n)
            return false;
        ++i;  // closing quote
        return true;
    };

    skip_ws();
    if (i >= n || line[i] != '{')
        return false;
    ++i;
    skip_ws();
    if (i < n && line[i] == '}') {
        ++i;
        skip_ws();
        return i == n;
    }
    while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key))
            return false;
        skip_ws();
        if (i >= n || line[i] != ':')
            return false;
        ++i;
        skip_ws();
        std::string val;
        if (i < n && line[i] == '"') {
            if (!parse_string(&val))
                return false;
        } else if (i < n && line[i] == '[') {
            // Arrays only appear as a bench meta line's column list;
            // capture the raw text up to the first ']' outside a
            // string (no nesting).
            const std::size_t start = i;
            bool in_str = false;
            for (++i; i < n && (in_str || line[i] != ']'); ++i) {
                if (in_str && line[i] == '\\')
                    ++i;
                else if (line[i] == '"')
                    in_str = !in_str;
            }
            if (i >= n)
                return false;
            ++i;
            val = line.substr(start, i - start);
        } else {
            // Bare token (number / true / false / null), checked by
            // the typed reads in JsonFields.
            const std::size_t start = i;
            while (i < n && line[i] != ',' && line[i] != '}')
                ++i;
            val = line.substr(start, i - start);
            while (!val.empty() &&
                   std::isspace(static_cast<unsigned char>(val.back())))
                val.pop_back();
            if (val.empty())
                return false;
        }
        (*out)[key] = val;
        skip_ws();
        if (i < n && line[i] == ',') {
            ++i;
            continue;
        }
        break;
    }
    skip_ws();
    if (i >= n || line[i] != '}')
        return false;
    ++i;
    skip_ws();
    return i == n;
}

std::string
JsonFields::s(const char *key) const
{
    auto it = obj.find(key);
    return it == obj.end() ? std::string() : it->second;
}

void
JsonFields::mark(const char *key)
{
    if (bad.empty())
        bad = key;
}

double
JsonFields::d(const char *key)
{
    auto it = obj.find(key);
    double v = 0.0;
    if (it != obj.end() &&
        !read_double(it->second, kMinDouble, kMaxDouble, &v))
        mark(key);
    return v;
}

std::uint64_t
JsonFields::u(const char *key, std::uint64_t max)
{
    auto it = obj.find(key);
    std::uint64_t v = 0;
    if (it != obj.end() && !read_uint(it->second, max, &v))
        mark(key);
    return v;
}

std::int64_t
JsonFields::i(const char *key, std::int64_t lo, std::int64_t hi)
{
    auto it = obj.find(key);
    std::int64_t v = 0;
    if (it != obj.end() && !read_int(it->second, lo, hi, &v))
        mark(key);
    return v;
}

std::vector<std::uint64_t>
JsonFields::u64s(const char *key)
{
    std::vector<std::uint64_t> out;
    const std::string list = s(key);
    for (std::size_t pos = 0; !list.empty() && pos <= list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        std::uint64_t v = 0;
        if (!read_uint(std::string_view(list).substr(pos, comma - pos),
                       UINT64_MAX, &v)) {
            mark(key);
            return {};
        }
        out.push_back(v);
        pos = comma + 1;
    }
    return out;
}

FlagTable::FlagTable(std::string prog, std::string positional)
    : prog_(std::move(prog)), positional_(std::move(positional))
{
}

FlagTable &
FlagTable::on(const char *name, bool *out)
{
    flags_.push_back({name, "", "", [out](const std::string &) {
                          *out = true;
                          return true;
                      }});
    return *this;
}

FlagTable &
FlagTable::text(const char *name, const char *meta, std::string *out)
{
    return custom(name, meta, "a value", [out](const std::string &v) {
        *out = v;
        return true;
    });
}

FlagTable &
FlagTable::u32(const char *name, const char *meta, std::uint32_t *out,
               std::uint32_t lo, std::uint32_t hi, const char *expect)
{
    return custom(name, meta, expect, [out, lo, hi](const std::string &v) {
        std::uint64_t x = 0;
        if (!read_uint(v, hi, &x) || x < lo)
            return false;
        *out = static_cast<std::uint32_t>(x);
        return true;
    });
}

FlagTable &
FlagTable::real(const char *name, const char *meta, double *out, double lo,
                double hi, const char *expect)
{
    return custom(name, meta, expect, [out, lo, hi](const std::string &v) {
        return read_double(v, lo, hi, out);
    });
}

FlagTable &
FlagTable::custom(const char *name, const char *meta, const char *expect,
                  std::function<bool(const std::string &)> set)
{
    flags_.push_back({name, meta, expect, std::move(set)});
    return *this;
}

bool
FlagTable::parse(int argc, const char *const *argv,
                 std::vector<std::string> *positional,
                 std::string *err) const
{
    positional->clear();
    for (int i = 1; i < argc; ++i) {
        std::string name = argv[i];
        if (name.size() < 2 || name[0] != '-') {
            positional->push_back(name);
            continue;
        }
        // "--name=value" carries its value inline.
        std::string value;
        bool has_value = false;
        const std::size_t eq = name.find('=');
        if (name.rfind("--", 0) == 0 && eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
            has_value = true;
        }
        const auto f =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Flag &x) { return x.name == name; });
        if (f == flags_.end()) {
            *err = "unknown option '" + name + "'";
            return false;
        }
        if (f->meta.empty()) {
            if (has_value) {
                *err = name + " takes no value";
                return false;
            }
        } else if (!has_value) {
            if (i + 1 >= argc) {
                *err = name + " expects " + f->expect + ", got nothing";
                return false;
            }
            value = argv[++i];
        }
        if (!f->set(value)) {
            *err = name + " expects " + f->expect + ", got '" + value + "'";
            return false;
        }
    }
    return true;
}

std::vector<std::string>
FlagTable::parse_or_exit(int argc, const char *const *argv) const
{
    std::vector<std::string> positional;
    std::string err;
    if (!parse(argc, argv, &positional, &err))
        fail(err);
    return positional;
}

void
FlagTable::fail(const std::string &msg) const
{
    std::fprintf(stderr, "%s: %s\n%s", prog_.c_str(), msg.c_str(),
                 usage().c_str());
    std::exit(2);
}

std::string
FlagTable::usage() const
{
    std::string u = "usage: " + prog_ + " " + positional_;
    for (const Flag &f : flags_)
        u += " [" + f.name + (f.meta.empty() ? "" : " " + f.meta) + "]";
    return u + "\n";
}

} // namespace pmill
