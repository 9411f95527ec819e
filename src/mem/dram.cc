#include "mem/dram.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

Dram::Dram(const DramConfig &cfg)
{
    init(cfg);
}

void
Dram::init(const DramConfig &cfg, Tracer *tracer)
{
    if (cfg.wordsPerCycle <= 0)
        fatal("Dram: non-positive bandwidth");
    cfg_ = cfg;
    // A fresh array, never clear()+resize(): that would keep the old
    // pages and their words.
    mem_ = decltype(mem_)(cfg.capacityWords);
    openRow_.assign(cfg.banks, -1);
    tokens_ = 0;
    now_ = 0;
    rowHits_ = 0;
    rowMisses_ = 0;
    trc_ = tracer ? tracer : &Tracer::instance();
    traceCh_ = trc_->channel("dram");
    resetStats();
}

Word
Dram::read(uint64_t wordAddr) const
{
    if (wordAddr >= mem_.size())
        panic("Dram::read: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    return mem_[wordAddr];
}

void
Dram::write(uint64_t wordAddr, Word w)
{
    if (wordAddr >= mem_.size())
        panic("Dram::write: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    mem_[wordAddr] = w;
}

void
Dram::fill(uint64_t wordAddr, const std::vector<Word> &data)
{
    if (data.size() > mem_.size() ||
        wordAddr > mem_.size() - data.size())
        panic("Dram::fill: range out of bounds");
    std::copy(data.begin(), data.end(), mem_.begin() + wordAddr);
}

std::vector<Word>
Dram::dump(uint64_t wordAddr, uint64_t n) const
{
    if (n > mem_.size() || wordAddr > mem_.size() - n)
        panic("Dram::dump: range out of bounds");
    return std::vector<Word>(mem_.begin() + wordAddr,
                             mem_.begin() + wordAddr + n);
}

void
Dram::tick()
{
    now_++;
    tokens_ = std::min(tokens_ + cfg_.wordsPerCycle, cfg_.burstTokens);
}

bool
Dram::tryConsumeExact(uint32_t words, bool sequential)
{
    return tryConsumeExactCost(words,
        sequential ? 1.0 : cfg_.randomCostFactor);
}

bool
Dram::tryConsumeExactCost(uint32_t words, double costFactor)
{
    double cost = costFactor * static_cast<double>(words);
    if (tokens_ < cost)
        return false;
    tokens_ -= cost;
    wordsTransferred_ += words;
    // Near-streaming efficiency (open-row hits) counts as sequential.
    if (costFactor <= 1.3)
        seqWords_ += words;
    else
        randomWords_ += words;
    return true;
}

bool
Dram::tryAccessWord(uint64_t addr)
{
    if (!cfg_.rowBufferModel)
        panic("Dram::tryAccessWord without rowBufferModel");
    auto row = static_cast<int64_t>(addr / cfg_.rowWords);
    uint32_t bank = static_cast<uint32_t>(row % cfg_.banks);
    bool hit = openRow_[bank] == row;
    double cost = hit ? cfg_.rowHitCost : cfg_.rowMissCost;
    if (tokens_ < cost)
        return false;
    tokens_ -= cost;
    openRow_[bank] = row;
    wordsTransferred_++;
    if (hit) {
        rowHits_++;
        seqWords_++;
    } else {
        rowMisses_++;
        randomWords_++;
        if (trc_->on())
            trc_->instant(traceCh_, "row_miss", now_, bank);
    }
    return true;
}

uint32_t
Dram::requestWords(uint32_t want, bool sequential)
{
    return requestWordsCost(want,
        sequential ? 1.0 : cfg_.randomCostFactor);
}

uint32_t
Dram::requestWordsCost(uint32_t want, double costFactor)
{
    auto n = static_cast<uint32_t>(tokens_ / costFactor);
    n = std::min(n, want);
    tokens_ -= static_cast<double>(n) * costFactor;
    wordsTransferred_ += n;
    if (costFactor <= 1.3)
        seqWords_ += n;
    else
        randomWords_ += n;
    return n;
}

} // namespace isrf
