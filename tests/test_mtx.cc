/**
 * @file
 * Tests for the tolerant MatrixMarket reader (util/mtx.h): banner and
 * size-line validation, symmetric/skew/pattern handling, collect-all
 * line-numbered diagnostics, truncation fuzzing at every byte offset,
 * CSR conversion with duplicate summing, the synthetic generators, the
 * dataset content hash (util/hash.h fnv1aFile), and the external
 * dataset registration path (--dataset) end to end on the committed
 * tests/data/tiny.mtx fixture.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/mtx.h"
#include "workloads/external.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

/** Temp file path removed on scope exit. */
class TempFile
{
  public:
    explicit TempFile(const char *tag)
    {
        path_ = ::testing::TempDir() + "isrf_mtx_" + tag + "_" +
            std::to_string(::getpid()) + ".mtx";
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

bool
writeRaw(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    return std::fclose(f) == 0 && ok;
}

std::string
dataPath(const char *name)
{
    return std::string(ISRF_TEST_DATA_DIR) + "/" + name;
}

const char *kGeneral =
    "%%MatrixMarket matrix coordinate real general\n"
    "% a comment\n"
    "3 4 5\n"
    "1 1 1.5\n"
    "1 4 -2.0\n"
    "2 2 3.25\n"
    "3 1 0.5\n"
    "3 3 7\n";

// ----------------------------------------------------------------------
// Happy paths
// ----------------------------------------------------------------------

TEST(MtxParse, GeneralRealRoundTrips)
{
    MtxMatrix m;
    std::vector<std::string> errs;
    ASSERT_TRUE(mtxParse(kGeneral, m, &errs)) << errs.size();
    EXPECT_TRUE(errs.empty());
    EXPECT_EQ(m.rows, 3u);
    EXPECT_EQ(m.cols, 4u);
    EXPECT_EQ(m.declaredEntries, 5u);
    EXPECT_EQ(m.nnz(), 5u);
    EXPECT_FALSE(m.pattern);
    EXPECT_EQ(m.symmetry, MtxMatrix::Symmetry::General);
    // 1-based in the file, 0-based in memory.
    EXPECT_EQ(m.rowIdx[0], 0u);
    EXPECT_EQ(m.colIdx[1], 3u);
    EXPECT_FLOAT_EQ(m.vals[2], 3.25f);
}

TEST(MtxParse, CrlfAndCaseInsensitiveBanner)
{
    MtxMatrix m;
    std::string text =
        "%%MatrixMarket MATRIX Coordinate REAL General\r\n"
        "2 2 1\r\n"
        "2 1 9.0\r\n";
    ASSERT_TRUE(mtxParse(text, m, nullptr));
    EXPECT_EQ(m.nnz(), 1u);
    EXPECT_EQ(m.rowIdx[0], 1u);
}

TEST(MtxParse, PatternGetsUnitValues)
{
    MtxMatrix m;
    std::string text =
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n";
    ASSERT_TRUE(mtxParse(text, m, nullptr));
    EXPECT_TRUE(m.pattern);
    ASSERT_EQ(m.nnz(), 2u);
    EXPECT_FLOAT_EQ(m.vals[0], 1.0f);
    EXPECT_FLOAT_EQ(m.vals[1], 1.0f);
}

TEST(MtxParse, SymmetricExpandsOffDiagonalOnly)
{
    MtxMatrix m;
    std::string text =
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n"
        "1 1 2.0\n"
        "2 1 5.0\n"
        "3 3 4.0\n";
    ASSERT_TRUE(mtxParse(text, m, nullptr));
    // 2 diagonal entries + 1 off-diagonal + its mirror image, which
    // the parser appends immediately after the stored entry.
    EXPECT_EQ(m.symmetry, MtxMatrix::Symmetry::Symmetric);
    ASSERT_EQ(m.nnz(), 4u);
    EXPECT_EQ(m.rowIdx[2], 0u);
    EXPECT_EQ(m.colIdx[2], 1u);
    EXPECT_FLOAT_EQ(m.vals[2], 5.0f);
}

TEST(MtxParse, SkewSymmetricNegatesMirror)
{
    MtxMatrix m;
    std::string text =
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 3.0\n";
    ASSERT_TRUE(mtxParse(text, m, nullptr));
    ASSERT_EQ(m.nnz(), 2u);
    EXPECT_FLOAT_EQ(m.vals[0], 3.0f);
    EXPECT_FLOAT_EQ(m.vals[1], -3.0f);
}

TEST(MtxParse, IntegerFieldTypeAccepted)
{
    MtxMatrix m;
    std::string text =
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 1\n"
        "1 2 -7\n";
    ASSERT_TRUE(mtxParse(text, m, nullptr));
    EXPECT_FLOAT_EQ(m.vals[0], -7.0f);
}

// ----------------------------------------------------------------------
// Diagnostics: every violation, line-numbered, collected in one pass
// ----------------------------------------------------------------------

TEST(MtxParse, MalformedBannersRejected)
{
    const char *bad[] = {
        "",                                             // empty input
        "1 1 1\n1 1 1.0\n",                             // no banner
        "%%MatrixMarket matrix array real general\n",   // not coordinate
        "%%MatrixMarket matrix coordinate complex general\n",
        "%%MatrixMarket matrix coordinate real hermitian\n",
        "%%MatrixMarket tensor coordinate real general\n",
        "%%MatrixMarket matrix coordinate real\n",      // too few words
    };
    for (const char *text : bad) {
        MtxMatrix m;
        std::vector<std::string> errs;
        EXPECT_FALSE(mtxParse(text, m, &errs)) << text;
        EXPECT_FALSE(errs.empty()) << text;
    }
}

TEST(MtxParse, OutOfRangeAndMalformedEntriesAllReported)
{
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 6\n"
        "0 1 1.0\n"     // row below range (1-based)
        "4 1 1.0\n"     // row above range
        "1 0 1.0\n"     // col below range
        "1 9 1.0\n"     // col above range
        "1 1\n"         // missing value
        "x 1 1.0\n";    // junk index
    MtxMatrix m;
    std::vector<std::string> errs;
    EXPECT_FALSE(mtxParse(text, m, &errs));
    EXPECT_EQ(errs.size(), 6u);
    // Diagnostics carry the 1-based source line.
    EXPECT_NE(errs[0].find("line 3"), std::string::npos) << errs[0];
    EXPECT_NE(errs[5].find("line 8"), std::string::npos) << errs[5];
}

TEST(MtxParse, BadValuesRejected)
{
    const char *bad[] = {"nan", "inf", "-inf", "1.0x", "", "."};
    for (const char *v : bad) {
        MtxMatrix m;
        std::vector<std::string> errs;
        std::string text =
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 1 " + std::string(v) + "\n";
        EXPECT_FALSE(mtxParse(text, m, &errs)) << v;
        EXPECT_FALSE(errs.empty()) << v;
    }
}

TEST(MtxParse, EntryCountMismatchesReported)
{
    MtxMatrix m;
    std::vector<std::string> errs;
    std::string missing =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n";
    EXPECT_FALSE(mtxParse(missing, m, &errs));
    EXPECT_FALSE(errs.empty());

    errs.clear();
    std::string extra =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 1.0\n"
        "2 2 1.0\n";
    EXPECT_FALSE(mtxParse(extra, m, &errs));
    EXPECT_FALSE(errs.empty());
}

TEST(MtxParse, AboveDiagonalSymmetricEntryIsAnError)
{
    MtxMatrix m;
    std::vector<std::string> errs;
    std::string text =
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 1\n"
        "1 3 2.0\n";
    EXPECT_FALSE(mtxParse(text, m, &errs));
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("line 3"), std::string::npos);
}

TEST(MtxParse, ErrorFloodIsCapped)
{
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 64\n";
    for (int i = 0; i < 64; i++)
        text += "9 9 bogus\n";
    MtxMatrix m;
    std::vector<std::string> errs;
    EXPECT_FALSE(mtxParse(text, m, &errs));
    // Capped with a trailing "suppressed" marker, not one per line.
    EXPECT_LE(errs.size(), 24u);
    EXPECT_NE(errs.back().find("suppressed"), std::string::npos);
}

/**
 * Fuzz: the parser must be total. Truncating a valid file at EVERY
 * byte offset must either parse cleanly (the full file, with or
 * without its final newline) or fail with diagnostics — never crash,
 * hang, or return success with silently missing entries.
 */
TEST(MtxParse, TruncationAtEveryByteOffsetIsTotal)
{
    const std::string full = kGeneral;
    for (size_t cut = 0; cut <= full.size(); cut++) {
        MtxMatrix m;
        std::vector<std::string> errs;
        bool ok = mtxParse(full.substr(0, cut), m, &errs);
        if (ok) {
            EXPECT_GE(cut, full.size() - 1) << "truncated parse "
                "succeeded at offset " << cut;
            EXPECT_EQ(m.nnz(), m.declaredEntries);
        } else {
            EXPECT_FALSE(errs.empty()) << "offset " << cut;
        }
    }
}

/** Same totality over a symmetric file (expansion path). */
TEST(MtxParse, TruncatedSymmetricNeverExpandsPartially)
{
    const std::string full =
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 1.0\n"
        "2 1 2.0\n"
        "3 2 3.0\n"
        "3 3 4.0\n";
    for (size_t cut = 0; cut < full.size() - 1; cut++) {
        MtxMatrix m;
        std::vector<std::string> errs;
        if (!mtxParse(full.substr(0, cut), m, &errs)) {
            EXPECT_FALSE(errs.empty()) << "offset " << cut;
        }
    }
}

TEST(MtxReadFile, MissingFileIsOneError)
{
    MtxMatrix m;
    std::vector<std::string> errs;
    EXPECT_FALSE(mtxReadFile(::testing::TempDir() +
                             "isrf_no_such_file.mtx", m, &errs));
    EXPECT_FALSE(errs.empty());
}

// ----------------------------------------------------------------------
// CSR conversion
// ----------------------------------------------------------------------

TEST(CooToCsr, SortsRowsAndSumsDuplicates)
{
    MtxMatrix m;
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 3 4\n"
        "2 3 1.0\n"
        "1 2 2.0\n"
        "1 2 3.0\n"
        "2 1 4.0\n";
    ASSERT_TRUE(mtxParse(text, m, nullptr));
    CsrMatrix csr = cooToCsr(m);
    EXPECT_EQ(csr.rows, 2u);
    EXPECT_EQ(csr.cols, 3u);
    // The (1,2) duplicate pair collapses: 3 stored entries.
    ASSERT_EQ(csr.nnz(), 3u);
    ASSERT_EQ(csr.rowPtr.size(), 3u);
    EXPECT_EQ(csr.rowPtr[0], 0u);
    EXPECT_EQ(csr.rowPtr[1], 1u);
    EXPECT_EQ(csr.rowPtr[2], 3u);
    EXPECT_EQ(csr.col[0], 1u);
    EXPECT_FLOAT_EQ(csr.val[0], 5.0f);
    EXPECT_EQ(csr.col[1], 0u);
    EXPECT_EQ(csr.col[2], 2u);
}

TEST(CooToCsr, EmptyRowsGetEmptySpans)
{
    MtxMatrix m;
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "4 4 1\n"
        "3 2 1.0\n";
    ASSERT_TRUE(mtxParse(text, m, nullptr));
    CsrMatrix csr = cooToCsr(m);
    ASSERT_EQ(csr.rowPtr.size(), 5u);
    EXPECT_EQ(csr.rowPtr[0], 0u);
    EXPECT_EQ(csr.rowPtr[1], 0u);
    EXPECT_EQ(csr.rowPtr[2], 0u);
    EXPECT_EQ(csr.rowPtr[3], 1u);
    EXPECT_EQ(csr.rowPtr[4], 1u);
}

// ----------------------------------------------------------------------
// Generators
// ----------------------------------------------------------------------

void
expectWellFormed(const CsrMatrix &m)
{
    ASSERT_EQ(m.rowPtr.size(), m.rows + 1u);
    EXPECT_EQ(m.rowPtr[0], 0u);
    EXPECT_EQ(m.rowPtr[m.rows], m.nnz());
    for (uint32_t r = 0; r < m.rows; r++) {
        ASSERT_LE(m.rowPtr[r], m.rowPtr[r + 1]);
        for (uint64_t k = m.rowPtr[r]; k < m.rowPtr[r + 1]; k++) {
            ASSERT_LT(m.col[k], m.cols);
            if (k > m.rowPtr[r]) {
                ASSERT_LT(m.col[k - 1], m.col[k]) << "row " << r;
            }
        }
    }
}

TEST(MtxGenerators, ProduceWellFormedDeterministicCsr)
{
    CsrMatrix banded = mtxGenBanded(256, 3, 7);
    CsrMatrix uniform = mtxGenUniform(256, 6, 7);
    CsrMatrix power = mtxGenPowerLaw(256, 6, 2.2, 7);
    for (const CsrMatrix *m : {&banded, &uniform, &power}) {
        expectWellFormed(*m);
        EXPECT_EQ(m->rows, 256u);
        EXPECT_GT(m->nnz(), 256u);
    }
    // Banded: every row hits its diagonal within the band.
    for (uint32_t r = 0; r < banded.rows; r++) {
        bool diag = false;
        for (uint64_t k = banded.rowPtr[r]; k < banded.rowPtr[r + 1];
                k++)
            diag = diag || banded.col[k] == r;
        EXPECT_TRUE(diag) << "row " << r;
    }
    // Same seed, same matrix; different seed, different matrix.
    CsrMatrix again = mtxGenUniform(256, 6, 7);
    EXPECT_EQ(again.col, uniform.col);
    CsrMatrix other = mtxGenUniform(256, 6, 8);
    EXPECT_NE(other.col, uniform.col);
}

// ----------------------------------------------------------------------
// Dataset content hashing (sweep fingerprint input attestation)
// ----------------------------------------------------------------------

TEST(Fnv1aFile, TracksContentAndSize)
{
    TempFile tmp("hash");
    ASSERT_TRUE(writeRaw(tmp.path(), "hello mtx\n"));
    uint64_t bytes = 0, hash = 0;
    ASSERT_TRUE(fnv1aFile(tmp.path(), bytes, hash));
    EXPECT_EQ(bytes, 10u);

    uint64_t bytes2 = 0, hash2 = 0;
    ASSERT_TRUE(writeRaw(tmp.path(), "hello mty\n"));
    ASSERT_TRUE(fnv1aFile(tmp.path(), bytes2, hash2));
    EXPECT_EQ(bytes2, bytes);
    EXPECT_NE(hash2, hash) << "content change must change the hash";

    uint64_t bytes3 = 0, hash3 = 0;
    EXPECT_FALSE(fnv1aFile(tmp.path() + ".missing", bytes3, hash3));
}

// ----------------------------------------------------------------------
// External dataset ingestion (--dataset) on the committed fixture
// ----------------------------------------------------------------------

TEST(ExternalDataset, FixtureParsesToExpectedShape)
{
    MtxMatrix m;
    std::vector<std::string> errs;
    ASSERT_TRUE(mtxReadFile(dataPath("tiny.mtx"), m, &errs))
        << (errs.empty() ? "" : errs[0]);
    EXPECT_EQ(m.rows, 12u);
    EXPECT_EQ(m.cols, 12u);
    // 23 stored entries, 11 sub-diagonal ones mirrored by expansion.
    EXPECT_EQ(m.nnz(), 34u);
    CsrMatrix csr = cooToCsr(m);
    expectWellFormed(csr);
    EXPECT_EQ(csr.nnz(), 34u);
}

TEST(ExternalDataset, RegistersRunnableWorkload)
{
    std::string name;
    std::vector<std::string> errs;
    ASSERT_TRUE(registerExternalDataset(dataPath("tiny.mtx"), &name,
                                        &errs))
        << (errs.empty() ? "" : errs[0]);
    EXPECT_EQ(name, "SpMV:tiny");
    ASSERT_EQ(workloadRegistry().count(name), 1u);

    const ExternalDataset *ds = findExternalDataset(name);
    ASSERT_NE(ds, nullptr);
    EXPECT_EQ(ds->rows, 12u);
    EXPECT_EQ(ds->nnz, 34u);
    EXPECT_EQ(findExternalDataset("FFT 2D"), nullptr);

    // The registered workload runs and validates on an indexed and a
    // sequential machine (the two trace shapes).
    for (MachineKind kind : {MachineKind::ISRF4, MachineKind::Base}) {
        WorkloadResult r =
            runWorkload(name, MachineConfig::make(kind), {});
        EXPECT_EQ(r.status, RunStatus::Done) << machineKindName(kind);
        EXPECT_TRUE(r.correct) << machineKindName(kind);
    }
}

TEST(ExternalDataset, BadFileRejectedWithDiagnostics)
{
    TempFile tmp("bad");
    ASSERT_TRUE(writeRaw(tmp.path(),
                         "%%MatrixMarket matrix coordinate real "
                         "general\n2 2 1\n9 9 1.0\n"));
    std::string name;
    std::vector<std::string> errs;
    EXPECT_FALSE(registerExternalDataset(tmp.path(), &name, &errs));
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("line 3"), std::string::npos);
}

TEST(ExternalDataset, UnknownWorkloadDiagnosticListsRegistry)
{
    WorkloadOptions opts;
    EXPECT_DEATH(runWorkload("NoSuchWorkload", MachineKind::Base, opts),
                 "registered:.*FFT 2D.*Histogram");
}

} // namespace
} // namespace isrf
