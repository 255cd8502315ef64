/**
 * @file
 * Advanced elements: IDS header checks, VLAN encapsulation, stateful
 * NAPT, and the synthetic WorkPackage microbenchmark element.
 */

#include <cstring>

#include "src/common/log.hh"
#include "src/common/parse.hh"
#include "src/elements/args.hh"
#include "src/elements/elements.hh"
#include "src/framework/config_parser.hh"
#include "src/net/byteorder.hh"
#include "src/net/checksum.hh"
#include "src/net/packet_builder.hh"

namespace pmill {

bool
IdsCheck::configure(const std::vector<std::string> &args, std::string *err)
{
    for (const auto &[kw, val] : parse_keywords(args)) {
        if (kw == "CONNTRACK" || kw.empty()) {
            std::uint64_t v = 0;
            if (!read_uint(val, UINT32_MAX, &v) || v == 0) {
                if (err)
                    *err = "IdsCheck: bad CONNTRACK '" + val + "'";
                return false;
            }
            conntrack_capacity_ = static_cast<std::uint32_t>(v);
        } else if (kw == "IDLE_TIMEOUT_MS") {
            double t = 0;
            if (!read_double(val, 0.0, kMaxDouble, &t) || t <= 0) {
                if (err)
                    *err = "IdsCheck: bad IDLE_TIMEOUT_MS '" + val + "'";
                return false;
            }
            idle_timeout_ms_ = t;
        } else {
            if (err)
                *err = "IdsCheck: unknown keyword " + kw;
            return false;
        }
    }
    return true;
}

bool
IdsCheck::initialize(SimMemory &mem, std::string *)
{
    if (conntrack_capacity_ == 0)
        return true;  // stateless mode
    conns_ = std::make_unique<CuckooHash<FiveTuple, std::uint64_t>>(
        mem, conntrack_capacity_);
    const TimeNs timeout_ns = idle_timeout_ms_ * 1e6;
    wheel_ = std::make_unique<TimerWheel<FiveTuple>>(timeout_ns / 8.0, 64);
    return true;
}

void
IdsCheck::age(TimeNs now, ExecContext &ctx)
{
    wheel_->advance(now, [&](const FiveTuple &key, TimeNs) -> TimeNs {
        const auto v = conns_->lookup(key, &ctx);
        if (!v)
            return 0;  // already forgotten (FIN/RST)
        const TimeNs last_seen_ns =
            static_cast<double>(*v >> 16) * 1000.0;
        const TimeNs timeout_ns = idle_timeout_ms_ * 1e6;
        if (now - last_seen_ns < timeout_ns)
            return last_seen_ns + timeout_ns;  // still live: re-arm
        if ((*v & 0x3) == kCtHalfOpen)
            --half_open_;
        conns_->erase(key, &ctx);
        ++evictions_;
        ctx.on_compute(4, 10);
        return 0;
    });
}

void
IdsCheck::track_tcp(const FiveTuple &key, std::uint8_t flags, TimeNs now,
                    ExecContext &ctx)
{
    const auto cur = conns_->lookup(key, &ctx);
    if (flags & (kTcpFlagFin | kTcpFlagRst)) {
        if (cur) {
            if ((*cur & 0x3) == kCtHalfOpen)
                --half_open_;
            conns_->erase(key, &ctx);
        }
    } else if (!cur) {
        // Only a SYN may open state; mid-flow packets of untracked
        // connections pass unrecorded (pre-existing flows).
        if ((flags & kTcpFlagSyn) && !(flags & kTcpFlagAck)) {
            const std::uint64_t us =
                static_cast<std::uint64_t>(now / 1000.0);
            if (conns_->insert(key, (us << 16) | kCtHalfOpen, &ctx)) {
                ++half_open_;
                wheel_->schedule(key, now + idle_timeout_ms_ * 1e6);
            }
        }
    } else {
        // Established (any non-SYN traffic completes the handshake);
        // refresh last-seen for the ager.
        const std::uint64_t us = static_cast<std::uint64_t>(now / 1000.0);
        if ((*cur & 0x3) == kCtHalfOpen && (flags & kTcpFlagSyn) == 0)
            --half_open_;
        const std::uint64_t state = (flags & kTcpFlagSyn)
                                        ? (*cur & 0x3)
                                        : kCtEstablished;
        conns_->insert(key, (us << 16) | state, &ctx);
    }
    ctx.on_compute(10, 25);
}

void
IdsCheck::process(PacketBatch &batch, ExecContext &ctx)
{
    if (conns_ && batch.count > 0)
        age(batch[0].arrival_ns, ctx);
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        (void)v.read(Field::kDataAddr);
        (void)v.read(Field::kLen);
        const std::uint32_t l3 =
            static_cast<std::uint32_t>(v.read(Field::kL3Offset));

        const auto *ip = reinterpret_cast<const Ipv4Header *>(h.data + l3);
        const std::uint32_t l4 = l3 + ip->header_len();
        const std::uint32_t l4_bytes = ip->total_len() - ip->header_len();
        ctx.load(h.data_addr + l4, 20);

        bool ok = true;
        switch (ip->proto) {
          case kIpProtoTcp: {
            if (l4_bytes < sizeof(TcpHeader) ||
                h.len < l4 + sizeof(TcpHeader)) {
                ok = false;
                break;
            }
            const auto *tcp =
                reinterpret_cast<const TcpHeader *>(h.data + l4);
            // Data offset sanity + reserved flag combinations.
            ok = tcp->header_len() >= sizeof(TcpHeader) &&
                 tcp->header_len() <= l4_bytes &&
                 (tcp->flags & 0x3F) != 0x03;  // SYN+FIN is invalid
            break;
          }
          case kIpProtoUdp: {
            if (l4_bytes < sizeof(UdpHeader) ||
                h.len < l4 + sizeof(UdpHeader)) {
                ok = false;
                break;
            }
            const auto *udp =
                reinterpret_cast<const UdpHeader *>(h.data + l4);
            ok = udp->length() == l4_bytes;
            break;
          }
          case kIpProtoIcmp: {
            if (l4_bytes < sizeof(IcmpHeader) ||
                h.len < l4 + sizeof(IcmpHeader)) {
                ok = false;
                break;
            }
            const auto *icmp =
                reinterpret_cast<const IcmpHeader *>(h.data + l4);
            ok = icmp->type <= 40;
            break;
          }
          default:
            ok = false;  // unknown transport: flag it
        }
        ctx.on_compute(28, 70);
        if (!ok) {
            ++flagged_;
            h.dropped = true;
            continue;
        }
        if (conns_ && ip->proto == kIpProtoTcp) {
            const auto *tcp =
                reinterpret_cast<const TcpHeader *>(h.data + l4);
            FiveTuple key{};
            key.src_ip = ip->src();
            key.dst_ip = ip->dst();
            key.src_port = tcp->src_port();
            key.dst_port = tcp->dst_port();
            key.proto = ip->proto;
            track_tcp(key, tcp->flags, h.arrival_ns, ctx);
        }
        v.write(Field::kL4Offset, l4);
    }
}

bool
IdsCheck::flow_table_stats(FlowTableStats *out) const
{
    if (!conns_)
        return false;
    const CuckooStats &cs = conns_->stats();
    out->occupancy = conns_->size();
    out->capacity = conns_->capacity();
    out->memory_bytes = conns_->memory_bytes();
    out->inserts = cs.inserts;
    out->failed_inserts = cs.failed_inserts;
    out->displacements = cs.displacements;
    out->max_kick_chain = cs.max_kick_chain;
    out->evictions = evictions_;
    out->half_open = half_open_;
    return true;
}

void
IdsCheck::access_profile(std::vector<Field> &reads,
                         std::vector<Field> &writes) const
{
    reads.push_back(Field::kDataAddr);
    reads.push_back(Field::kLen);
    reads.push_back(Field::kL3Offset);
    writes.push_back(Field::kL4Offset);
}

bool
VlanEncap::configure(const std::vector<std::string> &args, std::string *err)
{
    for (const auto &[kw, val] : parse_keywords(args)) {
        std::uint64_t v = 0;
        if ((kw == "VLAN_ID" || kw == "VLAN_TCI" || kw.empty()) &&
            read_uint(val, 65535, &v)) {
            tci_ = static_cast<std::uint16_t>(v);
        } else {
            if (err)
                *err = "VLANEncap: bad argument '" + val + "'";
            return false;
        }
    }
    return true;
}

void
VlanEncap::process(PacketBatch &batch, ExecContext &ctx)
{
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        (void)v.read(Field::kDataAddr);
        ctx.param_load(state_, 0);  // TCI

        // Prepend 4 bytes using the headroom: move the two MAC
        // addresses back by 4; the original EtherType bytes then sit
        // exactly where the encapsulated type belongs (nd+16), so
        // only the outer type (0x8100) and the TCI need writing.
        ctx.load(h.data_addr, 12);
        std::uint8_t *nd = h.data - kVlanHeaderLen;
        std::memmove(nd, h.data, 12);
        const std::uint16_t vlan_be = hton16(kEtherTypeVlan);
        std::memcpy(nd + 12, &vlan_be, 2);
        const std::uint16_t tci_be = hton16(tci_);
        std::memcpy(nd + 14, &tci_be, 2);

        ctx.store(h.data_addr - kVlanHeaderLen, 18);
        h.data = nd;
        h.data_addr -= kVlanHeaderLen;
        h.len += kVlanHeaderLen;
        v.write(Field::kDataAddr, h.data_addr);
        v.write(Field::kLen, h.len);
        v.write(Field::kL3Offset, kEtherHeaderLen + kVlanHeaderLen);
        ctx.on_compute(18, 45);
    }
}

void
VlanEncap::access_profile(std::vector<Field> &reads,
                          std::vector<Field> &writes) const
{
    reads.push_back(Field::kDataAddr);
    writes.push_back(Field::kDataAddr);
    writes.push_back(Field::kLen);
    writes.push_back(Field::kL3Offset);
}

bool
Napt::configure(const std::vector<std::string> &args, std::string *err)
{
    for (const auto &[kw, val] : parse_keywords(args)) {
        if (kw == "SRCIP" || kw.empty()) {
            if (!parse_ipv4(val, &nat_ip_)) {
                if (err)
                    *err = "Napt: bad SRCIP '" + val + "'";
                return false;
            }
        } else if (kw == "CAPACITY") {
            std::uint64_t v = 0;
            if (!read_uint(val, UINT32_MAX, &v) || v == 0) {
                if (err)
                    *err = "Napt: bad CAPACITY '" + val + "'";
                return false;
            }
            capacity_ = static_cast<std::uint32_t>(v);
        } else if (kw == "IDLE_TIMEOUT_MS") {
            double t = 0;
            if (!read_double(val, 0.0, kMaxDouble, &t)) {
                if (err)
                    *err = "Napt: bad IDLE_TIMEOUT_MS '" + val + "'";
                return false;
            }
            idle_timeout_ms_ = t;
        } else {
            if (err)
                *err = "Napt: unknown keyword " + kw;
            return false;
        }
    }
    if (nat_ip_.value == 0) {
        if (err)
            *err = "Napt requires SRCIP";
        return false;
    }
    return true;
}

bool
Napt::initialize(SimMemory &mem, std::string *)
{
    table_ =
        std::make_unique<CuckooHash<FiveTuple, std::uint64_t>>(mem,
                                                               capacity_);
    if (idle_timeout_ms_ > 0) {
        const TimeNs timeout_ns = idle_timeout_ms_ * 1e6;
        wheel_ =
            std::make_unique<TimerWheel<FiveTuple>>(timeout_ns / 8.0, 64);
    }
    return true;
}

void
Napt::age(TimeNs now, ExecContext &ctx)
{
    wheel_->advance(now, [&](const FiveTuple &key, TimeNs) -> TimeNs {
        const auto v = table_->lookup(key, &ctx);
        if (!v)
            return 0;
        const TimeNs last_seen_ns =
            static_cast<double>(*v >> 16) * 1000.0;
        const TimeNs timeout_ns = idle_timeout_ms_ * 1e6;
        if (now - last_seen_ns < timeout_ns)
            return last_seen_ns + timeout_ns;  // refreshed: re-arm
        table_->erase(key, &ctx);
        ++evictions_;
        ctx.on_compute(4, 10);
        return 0;
    });
}

std::uint64_t
Napt::active_mappings() const
{
    return table_ ? table_->size() : 0;
}

void
Napt::process(PacketBatch &batch, ExecContext &ctx)
{
    PMILL_ASSERT(table_ != nullptr, "Napt not initialized");
    if (wheel_ && batch.count > 0)
        age(batch[0].arrival_ns, ctx);
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        PacketHandle &h = batch[i];
        PacketView v = view(h, ctx);
        (void)v.read(Field::kDataAddr);
        const std::uint32_t l3 =
            static_cast<std::uint32_t>(v.read(Field::kL3Offset));

        auto *ip = reinterpret_cast<Ipv4Header *>(h.data + l3);
        if (ip->proto != kIpProtoTcp && ip->proto != kIpProtoUdp)
            continue;  // pass non-TCP/UDP unchanged

        const std::uint32_t l4 = l3 + ip->header_len();
        ctx.load(h.data_addr + l3 + 12, 8);  // src/dst addresses
        ctx.load(h.data_addr + l4, 4);       // ports

        FiveTuple key{};
        key.src_ip = ip->src();
        key.dst_ip = ip->dst();
        key.proto = ip->proto;
        std::uint16_t *ports = reinterpret_cast<std::uint16_t *>(
            h.data + l4);  // src_port_be, dst_port_be
        key.src_port = ntoh16(ports[0]);
        key.dst_port = ntoh16(ports[1]);

        std::uint16_t mapped_port;
        auto found = table_->lookup(key, &ctx);
        if (found) {
            mapped_port = static_cast<std::uint16_t>(*found);
            // Refresh last-seen so the ager keeps live flows armed.
            if (wheel_)
                table_->insert(key, pack_value(mapped_port, h.arrival_ns),
                               &ctx);
        } else {
            mapped_port = next_port_;
            next_port_ =
                next_port_ == 65535 ? 1024
                                    : static_cast<std::uint16_t>(
                                          next_port_ + 1);
            ctx.load(state_.addr, 8);   // port allocator state
            ctx.store(state_.addr, 8);
            const std::uint64_t value =
                wheel_ ? pack_value(mapped_port, h.arrival_ns)
                       : mapped_port;
            if (!table_->insert(key, value, &ctx)) {
                h.dropped = true;  // table full of live flows: drop
                continue;
            }
            if (wheel_)
                wheel_->schedule(key,
                                 h.arrival_ns + idle_timeout_ms_ * 1e6);
        }

        // Rewrite source address/port with incremental checksums.
        const std::uint32_t old_src = ip->src().value;
        const std::uint16_t old_port = key.src_port;
        ip->checksum_be = hton16(checksum_update32(
            ntoh16(ip->checksum_be), old_src, nat_ip_.value));
        ip->set_src(nat_ip_);
        ports[0] = hton16(mapped_port);
        if (ip->proto == kIpProtoTcp) {
            auto *tcp = reinterpret_cast<TcpHeader *>(h.data + l4);
            std::uint16_t sum = ntoh16(tcp->checksum_be);
            sum = checksum_update32(sum, old_src, nat_ip_.value);
            sum = checksum_update16(sum, old_port, mapped_port);
            tcp->checksum_be = hton16(sum);
        }
        ctx.store(h.data_addr + l3 + 10, 8);  // checksum + src addr
        ctx.store(h.data_addr + l4, 4);       // ports + l4 checksum
        ctx.on_compute(18, 45);
    }
}

bool
Napt::flow_table_stats(FlowTableStats *out) const
{
    if (!table_)
        return false;
    const CuckooStats &cs = table_->stats();
    out->occupancy = table_->size();
    out->capacity = table_->capacity();
    out->memory_bytes = table_->memory_bytes();
    out->inserts = cs.inserts;
    out->failed_inserts = cs.failed_inserts;
    out->displacements = cs.displacements;
    out->max_kick_chain = cs.max_kick_chain;
    out->evictions = evictions_;
    out->half_open = 0;
    return true;
}

void
Napt::access_profile(std::vector<Field> &reads,
                     std::vector<Field> &writes) const
{
    reads.push_back(Field::kDataAddr);
    reads.push_back(Field::kL3Offset);
    writes.push_back(Field::kAggregate);
}

bool
WorkPackage::configure(const std::vector<std::string> &args,
                       std::string *err)
{
    for (const auto &[kw, val] : parse_keywords(args)) {
        std::uint64_t v = 0;
        if (!read_uint(val, UINT32_MAX, &v)) {
            if (err)
                *err = "WorkPackage: bad value '" + val + "'";
            return false;
        }
        if (kw == "S")
            s_mb_ = static_cast<std::uint32_t>(v);
        else if (kw == "N")
            n_accesses_ = static_cast<std::uint32_t>(v);
        else if (kw == "W")
            w_rounds_ = static_cast<std::uint32_t>(v);
        else {
            if (err)
                *err = "WorkPackage: expected S/N/W keywords";
            return false;
        }
    }
    return true;
}

bool
WorkPackage::initialize(SimMemory &mem, std::string *)
{
    const std::uint64_t bytes =
        std::max<std::uint64_t>(1, s_mb_) * 1024ull * 1024ull;
    scratch_ = mem.alloc(bytes, kPageBytes, Region::kScratch);
    // Fill deterministically so reads have real data.
    for (std::uint64_t i = 0; i < bytes; i += 4096)
        scratch_.host[i] = static_cast<std::uint8_t>(i >> 12);
    return true;
}

void
WorkPackage::warm_caches(CacheHierarchy &caches)
{
    // One pass over the scratch region, as the first seconds of a
    // real run would do.
    for (std::uint64_t off = 0; off < scratch_.size;
         off += kCacheLineBytes)
        caches.access(scratch_.addr + off, 8, AccessType::kLoad);
}

void
WorkPackage::process(PacketBatch &batch, ExecContext &ctx)
{
    const std::uint64_t region = scratch_.size;
    for (std::uint32_t i = 0; i < batch.count; ++i) {
        // N pseudo-random reads into the S-MiB region (real reads —
        // the checksum depends on them).
        for (std::uint32_t a = 0; a < n_accesses_; ++a) {
            const std::uint64_t off =
                rng_.next_below(region / 8) * 8;
            ctx.load(scratch_.addr + off, 8);
            std::uint64_t val;
            std::memcpy(&val, scratch_.host + off, 8);
            checksum_ += val;
        }
        // W rounds of PRNG work (the CPU-intensive knob).
        for (std::uint32_t w = 0; w < w_rounds_; ++w)
            checksum_ ^= rng_.next();
        ctx.on_compute(2.0 + 10.0 * w_rounds_, 5.0 + 12.0 * w_rounds_);
    }
}

} // namespace pmill
