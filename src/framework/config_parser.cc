#include "src/framework/config_parser.hh"

#include <cctype>

#include "src/common/log.hh"
#include "src/common/parse.hh"

namespace pmill {

int
ParsedGraph::find(const std::string &name) const
{
    for (std::size_t i = 0; i < elements.size(); ++i)
        if (elements[i].name == name)
            return static_cast<int>(i);
    return -1;
}

std::vector<std::uint32_t>
ParsedGraph::of_class(const std::string &class_name) const
{
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < elements.size(); ++i)
        if (elements[i].class_name == class_name)
            out.push_back(static_cast<std::uint32_t>(i));
    return out;
}

int
ParsedGraph::next_of(std::uint32_t elem, std::uint32_t port) const
{
    for (const auto &e : edges)
        if (e.from == elem && e.from_port == port)
            return static_cast<int>(e.to);
    return -1;
}

namespace {

/** Character scanner with line tracking and comment skipping. */
class Scanner {
  public:
    explicit Scanner(const std::string &text) : text_(text) {}

    void
    skip_space()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                while (pos_ < text_.size() && text_[pos_] != '\n')
                    ++pos_;
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '*') {
                pos_ += 2;
                while (pos_ + 1 < text_.size() &&
                       !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
                    if (text_[pos_] == '\n')
                        ++line_;
                    ++pos_;
                }
                pos_ = std::min(pos_ + 2, text_.size());
            } else {
                break;
            }
        }
    }

    bool eof()
    {
        skip_space();
        return pos_ >= text_.size();
    }

    char
    peek()
    {
        skip_space();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool
    consume(char c)
    {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consume_arrow()
    {
        skip_space();
        if (pos_ + 1 < text_.size() && text_[pos_] == '-' &&
            text_[pos_ + 1] == '>') {
            pos_ += 2;
            return true;
        }
        return false;
    }

    bool
    consume_coloncolon()
    {
        skip_space();
        if (pos_ + 1 < text_.size() && text_[pos_] == ':' &&
            text_[pos_ + 1] == ':') {
            pos_ += 2;
            return true;
        }
        return false;
    }

    /** Identifier: [A-Za-z_][A-Za-z0-9_@]* */
    std::string
    ident()
    {
        skip_space();
        std::string s;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                (!s.empty() && c == '@')) {
                s += c;
                ++pos_;
            } else {
                break;
            }
        }
        return s;
    }

    /** Balanced "(...)" body (without the outer parentheses). */
    bool
    paren_body(std::string *out)
    {
        if (!consume('('))
            return false;
        int depth = 1;
        std::string s;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '(') {
                ++depth;
            } else if (c == ')') {
                if (--depth == 0) {
                    *out = s;
                    return true;
                }
            } else if (c == '\n') {
                ++line_;
            }
            if (depth > 0)
                s += c;
        }
        return false;
    }

    /** "[number]" port selector; @return -1 when absent. */
    int
    port_selector()
    {
        if (!consume('['))
            return -1;
        skip_space();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        std::uint64_t v = 0;
        if (!read_uint(std::string_view(text_).substr(start, pos_ - start),
                       INT32_MAX, &v) ||
            !consume(']'))
            return -2;  // malformed
        return static_cast<int>(v);
    }

    int line() const { return line_; }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

} // namespace

std::vector<std::string>
split_config_args(const std::string &args)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : args) {
        if (c == '(' || c == '[')
            ++depth;
        else if (c == ')' || c == ']')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    // Trim each piece; drop pieces that are all whitespace.
    std::vector<std::string> trimmed;
    for (auto &s : out) {
        std::size_t b = s.find_first_not_of(" \t\r\n");
        std::size_t e = s.find_last_not_of(" \t\r\n");
        if (b == std::string::npos)
            continue;
        trimmed.push_back(s.substr(b, e - b + 1));
    }
    return trimmed;
}

std::vector<std::pair<std::string, std::string>>
parse_keywords(const std::vector<std::string> &args)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &a : args) {
        const std::size_t sp = a.find_first_of(" \t");
        if (sp == std::string::npos) {
            out.emplace_back("", a);
            continue;
        }
        const std::string kw = a.substr(0, sp);
        bool all_upper = !kw.empty();
        for (char c : kw)
            if (!std::isupper(static_cast<unsigned char>(c)) && c != '_')
                all_upper = false;
        if (all_upper) {
            std::size_t b = a.find_first_not_of(" \t", sp);
            out.emplace_back(kw, b == std::string::npos ? "" : a.substr(b));
        } else {
            out.emplace_back("", a);
        }
    }
    return out;
}

bool
parse_click_config(const std::string &text, ParsedGraph *out,
                   std::string *err)
{
    ParsedGraph g;
    Scanner sc(text);
    int anon_counter = 0;

    auto fail = [&](const std::string &msg) {
        if (err)
            *err = strprintf("line %d: %s", sc.line(), msg.c_str());
        return false;
    };

    // Parse one element reference within a connection chain:
    // either a declared name or an inline anonymous class.
    auto element_ref = [&](const std::string &ident,
                           std::string args) -> int {
        const int existing = g.find(ident);
        if (existing >= 0)
            return existing;
        // Anonymous instance of class `ident`.
        ParsedElement pe;
        pe.class_name = ident;
        pe.name = strprintf("%s@%d", ident.c_str(), ++anon_counter);
        pe.args = split_config_args(args);
        g.elements.push_back(pe);
        return static_cast<int>(g.elements.size()) - 1;
    };

    while (!sc.eof()) {
        if (sc.consume(';'))
            continue;

        std::string first = sc.ident();
        if (first.empty())
            return fail("expected identifier");

        if (sc.consume_coloncolon()) {
            // Declaration: name :: Class(args);
            std::string cls = sc.ident();
            if (cls.empty())
                return fail("expected class name after '::'");
            std::string args;
            if (sc.peek() == '(') {
                if (!sc.paren_body(&args))
                    return fail("unbalanced parentheses");
            }
            if (g.find(first) >= 0)
                return fail("duplicate element name '" + first + "'");
            ParsedElement pe;
            pe.name = first;
            pe.class_name = cls;
            pe.args = split_config_args(args);
            g.elements.push_back(pe);

            // A declaration may start a chain: name :: Class -> next
            if (!sc.consume_arrow()) {
                if (!sc.consume(';') && !sc.eof())
                    return fail("expected ';' after declaration");
                continue;
            }
            // Fall through to chain parsing with this as the head.
            first = pe.name;
            goto chain;
        }

        {
            // Connection chain starting at `first`.
            std::string args;
            if (sc.peek() == '(') {
                if (!sc.paren_body(&args))
                    return fail("unbalanced parentheses");
            }
            int head = element_ref(first, args);
            int from_port = sc.port_selector();
            if (from_port == -2)
                return fail("malformed port selector");
            if (!sc.consume_arrow()) {
                if (!sc.consume(';') && !sc.eof())
                    return fail("expected '->' or ';'");
                continue;
            }
            // Re-enter generic chain loop below.
            int cur = head;
            int cur_port = from_port < 0 ? 0 : from_port;
            while (true) {
                int to_port = sc.port_selector();
                if (to_port == -2)
                    return fail("malformed port selector");
                std::string nid = sc.ident();
                if (nid.empty())
                    return fail("expected element after '->'");
                std::string nargs;
                if (sc.peek() == '(') {
                    if (!sc.paren_body(&nargs))
                        return fail("unbalanced parentheses");
                }
                int next = element_ref(nid, nargs);
                ParsedEdge e;
                e.from = static_cast<std::uint32_t>(cur);
                e.from_port = static_cast<std::uint32_t>(cur_port);
                e.to = static_cast<std::uint32_t>(next);
                e.to_port = to_port < 0 ? 0u
                                        : static_cast<std::uint32_t>(to_port);
                g.edges.push_back(e);

                cur = next;
                int p = sc.port_selector();
                if (p == -2)
                    return fail("malformed port selector");
                cur_port = p < 0 ? 0 : p;
                if (!sc.consume_arrow())
                    break;
            }
            if (!sc.consume(';') && !sc.eof())
                return fail("expected ';' at end of chain");
            continue;
        }

      chain: {
            int cur = g.find(first);
            int cur_port = 0;
            while (true) {
                int to_port = sc.port_selector();
                if (to_port == -2)
                    return fail("malformed port selector");
                std::string nid = sc.ident();
                if (nid.empty())
                    return fail("expected element after '->'");
                std::string nargs;
                if (sc.peek() == '(') {
                    if (!sc.paren_body(&nargs))
                        return fail("unbalanced parentheses");
                }
                int next = element_ref(nid, nargs);
                ParsedEdge e;
                e.from = static_cast<std::uint32_t>(cur);
                e.from_port = static_cast<std::uint32_t>(cur_port);
                e.to = static_cast<std::uint32_t>(next);
                e.to_port = to_port < 0 ? 0u
                                        : static_cast<std::uint32_t>(to_port);
                g.edges.push_back(e);

                cur = next;
                int p = sc.port_selector();
                if (p == -2)
                    return fail("malformed port selector");
                cur_port = p < 0 ? 0 : p;
                if (!sc.consume_arrow())
                    break;
            }
            if (!sc.consume(';') && !sc.eof())
                return fail("expected ';' at end of chain");
        }
    }

    *out = std::move(g);
    return true;
}

} // namespace pmill
