/**
 * @file
 * Address and route parsing shared by element configure() methods;
 * numbers go through the strict reads of src/common/parse.hh.
 */

#ifndef PMILL_ELEMENTS_ARGS_HH
#define PMILL_ELEMENTS_ARGS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/headers.hh"
#include "src/table/lpm.hh"

namespace pmill {

/** Parse dotted-quad IPv4. */
bool parse_ipv4(const std::string &s, Ipv4Addr *out);

/** Parse colon-separated MAC. */
bool parse_mac(const std::string &s, MacAddr *out);

/** Parse "a.b.c.d/len port" into a Route. */
bool parse_route(const std::string &s, Route *out);

} // namespace pmill

#endif // PMILL_ELEMENTS_ARGS_HH
