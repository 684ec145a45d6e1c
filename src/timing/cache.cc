#include "timing/cache.hh"

#include "common/logging.hh"

namespace regpu
{

CacheModel::CacheModel(const CacheParams &params)
    : params_(params), numSets(validateCacheGeometry(params)),
      lineShift_(__builtin_ctz(params.lineBytes)),
      setShift_(__builtin_ctzll(numSets)),
      ways_(numSets * params.ways)
{
}

void
CacheModel::linkNextLevel(CacheModel *next)
{
    REGPU_ASSERT(dram_ == nullptr,
                 "cache already linked to DRAM: ", params_.name);
    next_ = next;
}

void
CacheModel::linkDram(DramModel *dram)
{
    REGPU_ASSERT(next_ == nullptr,
                 "cache already linked to a next level: ", params_.name);
    dram_ = dram;
}

void
CacheModel::propagateWriteback(Addr lineAddr, TrafficClass cls)
{
    writebackBytes_[static_cast<u8>(cls)] += params_.lineBytes;
    if (next_)
        next_->accessRange(lineAddr, params_.lineBytes, true, cls);
    else if (dram_)
        dram_->access(lineAddr, params_.lineBytes, cls,
                      DramDir::Writeback);
}

Cycles
CacheModel::propagateFill(Addr lineAddr, TrafficClass cls)
{
    fills_++;
    fillBytes_[static_cast<u8>(cls)] += params_.lineBytes;
    if (next_)
        return next_->accessRange(lineAddr, params_.lineBytes, false,
                                  cls).latency;
    if (dram_)
        return dram_->access(lineAddr, params_.lineBytes, cls,
                             DramDir::Read);
    return 0;
}

CacheAccessResult
CacheModel::access(Addr addr, bool write, TrafficClass cls)
{
    demandBytes_[static_cast<u8>(cls)] += params_.lineBytes;
    return accessLine(addr, write, cls);
}

CacheAccessResult
CacheModel::accessLine(Addr addr, bool write, TrafficClass cls)
{
    const Addr line = addr >> lineShift_;
    const u64 setIdx = line & (numSets - 1);
    const Addr tag = line >> setShift_;
    Way *const set = &ways_[setIdx * params_.ways];
    Way *const setEnd = set + params_.ways;
    accesses_++;
    stamp++;

    CacheAccessResult result;
    result.latency = params_.hitLatency;

    for (Way *w = set; w != setEnd; w++) {
        if (w->valid && w->tag == tag) {
            hits_++;
            w->lastUse = stamp;
            w->dirty |= write;
            result.hit = true;
            return result;
        }
    }

    // Miss: allocate over the LRU way.
    misses_++;
    Way *victim = set;
    for (Way *w = set; w != setEnd; w++) {
        if (!w->valid) {
            victim = w;
            break;
        }
        if (w->lastUse < victim->lastUse)
            victim = w;
    }
    if (victim->valid && victim->dirty) {
        writebacks_++;
        result.writeback = true;
        // Reconstruct the victim's byte address from its tag: the
        // dirty data leaves at *its* address, not the requester's.
        const Addr victimLine = (victim->tag << setShift_) | setIdx;
        result.writebackAddr = victimLine << lineShift_;
        propagateWriteback(result.writebackAddr, victim->cls);
    }
    // Read misses fetch the line from the next level; write misses
    // allocate without a fetch (full-line write-combining - see the
    // file comment). Writes are posted, so only the fill adds
    // latency.
    if (!write)
        result.latency += propagateFill(line << lineShift_, cls);
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lastUse = stamp;
    victim->cls = cls;
    return result;
}

CacheModel::RangeOutcome
CacheModel::accessRange(Addr addr, u32 bytes, bool write,
                        TrafficClass cls)
{
    RangeOutcome out;
    if (bytes == 0)
        return out; // zero-byte ranges touch nothing
    demandBytes_[static_cast<u8>(cls)] += bytes;
    const Addr first = addr >> lineShift_;
    const Addr last = (addr + bytes - 1) >> lineShift_;
    for (Addr line = first; line <= last; line++) {
        CacheAccessResult r = accessLine(line << lineShift_, write, cls);
        if (!r.hit)
            out.missLines++;
        if (r.writeback)
            out.writebacks++;
        // Hits contribute their hit latency too: a downstream level
        // that absorbs a fill still charges its access time.
        out.latency += r.latency;
    }
    return out;
}

void
CacheModel::invalidateAll()
{
    Way *w = ways_.data();
    for (u64 s = 0; s < numSets; s++) {
        for (u32 k = 0; k < params_.ways; k++, w++) {
            if (w->valid && w->dirty) {
                writebacks_++;
                const Addr victimLine = (w->tag << setShift_) | s;
                propagateWriteback(victimLine << lineShift_, w->cls);
            }
            *w = Way{};
        }
    }
}

} // namespace regpu
