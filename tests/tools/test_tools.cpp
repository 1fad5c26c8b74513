// End-to-end tests of the command-line tools, run as subprocesses: the
// full paper pipeline (shred -> formatdb -> mrblast_search) and the SOM
// trainer on both input modes. Tool binary paths are injected by CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/wait.h>

#include "blast/sequence.hpp"
#include "common/mmap_file.hpp"
#include "som/som.hpp"

#ifndef MRBIO_TOOL_DIR
#error "MRBIO_TOOL_DIR must be defined by the build"
#endif

namespace mrbio {
namespace {

namespace fs = std::filesystem;

class ToolsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mrbio_tools_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string tool(const std::string& name) const {
    return std::string(MRBIO_TOOL_DIR) + "/" + name;
  }

  int run(const std::string& cmd) const {
    const std::string full = cmd + " > " + (dir_ / "stdout.txt").string() + " 2> " +
                             (dir_ / "stderr.txt").string();
    return std::system(full.c_str());
  }

  std::string stdout_text() const { return slurp(dir_ / "stdout.txt"); }
  std::string stderr_text() const { return slurp(dir_ / "stderr.txt"); }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(ToolsTest, HelpExitsCleanly) {
  for (const char* name : {"mrformatdb", "mrblast_search", "mrsom_train", "shred_fasta"}) {
    EXPECT_EQ(run(tool(name) + " --help"), 0) << name;
  }
}

TEST_F(ToolsTest, MissingArgumentsFailWithError) {
  EXPECT_NE(run(tool("mrformatdb")), 0);
  EXPECT_NE(run(tool("mrblast_search")), 0);
  EXPECT_NE(run(tool("shred_fasta")), 0);
  EXPECT_NE(run(tool("mrsom_train")), 0);
}

TEST_F(ToolsTest, FullBlastPipeline) {
  // 1. Make genomes.
  Rng rng(11);
  std::vector<blast::Sequence> genomes;
  for (int g = 0; g < 4; ++g) {
    genomes.push_back(
        blast::random_sequence(rng, "genome" + std::to_string(g), 1'500, blast::SeqType::Dna));
  }
  blast::write_fasta_file(path("genomes.fa"), genomes, blast::SeqType::Dna);

  // 2. shred_fasta: genomes -> read-like queries.
  ASSERT_EQ(run(tool("shred_fasta") + " --in " + path("genomes.fa") + " --out " +
                path("reads.fa") + " --length 400 --overlap 200"),
            0);
  const auto reads = blast::read_fasta_file(path("reads.fa"), blast::SeqType::Dna);
  EXPECT_GT(reads.size(), 20u);

  // 3. mrformatdb: genomes -> partitioned DB.
  ASSERT_EQ(run(tool("mrformatdb") + " --in " + path("genomes.fa") + " --out " +
                path("db") + " --volume-residues 2000"),
            0);
  EXPECT_TRUE(fs::exists(path("db.mal")));
  EXPECT_TRUE(fs::exists(path("db.000.vol")));
  EXPECT_TRUE(fs::exists(path("db.001.vol")));

  // 4. mrblast_search with self-hit exclusion off: every read hits its
  //    parent genome.
  ASSERT_EQ(run(tool("mrblast_search") + " --query " + path("reads.fa") + " --db " +
                path("db.mal") + " --out " + path("hits") +
                " --ranks 5 --block 7 --evalue 1e-6 --no-filter --locality --tapered"),
            0);
  std::size_t hit_lines = 0;
  std::size_t parent_hits = 0;
  for (const auto& entry : fs::directory_iterator(path("hits"))) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      ++hit_lines;
      // "genomeX/a-b\tgenomeX\t..." -- query prefix matches subject.
      const auto tab1 = line.find('\t');
      const auto tab2 = line.find('\t', tab1 + 1);
      const std::string qid = line.substr(0, tab1);
      const std::string sid = line.substr(tab1 + 1, tab2 - tab1 - 1);
      if (qid.rfind(sid + "/", 0) == 0) ++parent_hits;
    }
  }
  EXPECT_GE(hit_lines, reads.size());
  EXPECT_GE(parent_hits, reads.size());

  // 5. Same search with --exclude-self: the parent hits vanish.
  ASSERT_EQ(run(tool("mrblast_search") + " --query " + path("reads.fa") + " --db " +
                path("db.mal") + " --out " + path("hits2") +
                " --ranks 5 --block 7 --evalue 1e-6 --no-filter --exclude-self"),
            0);
  std::size_t self_hits = 0;
  // Every read's only match is its parent, so excluding self hits may
  // leave nothing to write at all -- the output directory is then never
  // created, which is itself the expected outcome.
  if (!fs::exists(path("hits2"))) return;
  for (const auto& entry : fs::directory_iterator(path("hits2"))) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      const auto tab1 = line.find('\t');
      const auto tab2 = line.find('\t', tab1 + 1);
      if (line.substr(0, tab1).rfind(line.substr(tab1 + 1, tab2 - tab1 - 1) + "/", 0) == 0) {
        ++self_hits;
      }
    }
  }
  EXPECT_EQ(self_hits, 0u);
}

TEST_F(ToolsTest, SimdFlagSelectsLevelWithIdenticalHits) {
  Rng rng(23);
  std::vector<blast::Sequence> genomes;
  for (int g = 0; g < 2; ++g) {
    genomes.push_back(
        blast::random_sequence(rng, "genome" + std::to_string(g), 900, blast::SeqType::Dna));
  }
  blast::write_fasta_file(path("genomes.fa"), genomes, blast::SeqType::Dna);
  ASSERT_EQ(run(tool("shred_fasta") + " --in " + path("genomes.fa") + " --out " +
                path("reads.fa") + " --length 200 --overlap 100"),
            0);
  ASSERT_EQ(run(tool("mrformatdb") + " --in " + path("genomes.fa") + " --out " +
                path("db") + " --volume-residues 2000"),
            0);

  auto hits_of = [&](const std::string& out) {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(path(out))) {
      files[entry.path().filename().string()] = slurp(entry.path());
    }
    return files;
  };
  const std::string base_cmd = tool("mrblast_search") + " --query " + path("reads.fa") +
                               " --db " + path("db.mal") +
                               " --ranks 3 --block 5 --evalue 1e-6 --no-filter";

  // Every level (and the env-var spelling) produces byte-identical hits.
  ASSERT_EQ(run(base_cmd + " --out " + path("hits_scalar") + " --simd scalar"), 0);
  const auto want = hits_of("hits_scalar");
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(run(base_cmd + " --out " + path("hits_auto") + " --simd auto"), 0);
  EXPECT_EQ(hits_of("hits_auto"), want);
  ASSERT_EQ(run("MRBIO_SIMD=scalar " + base_cmd + " --out " + path("hits_env")), 0);
  EXPECT_EQ(hits_of("hits_env"), want);

  // Unknown levels are rejected up front.
  EXPECT_NE(run(base_cmd + " --out " + path("hits_bad") + " --simd avx512"), 0);
  EXPECT_NE(run(tool("mrsom_train") + " --simd turbo"), 0);
  EXPECT_NE(run(tool("mrgraph_build") + " --simd turbo"), 0);
}

TEST_F(ToolsTest, ProteinPipeline) {
  Rng rng(15);
  std::vector<blast::Sequence> db;
  const auto ancestor = blast::random_sequence(rng, "fam", 250, blast::SeqType::Protein);
  db.push_back(blast::mutate(rng, ancestor, "fam_homolog", 0.2, blast::SeqType::Protein));
  for (int i = 0; i < 8; ++i) {
    db.push_back(blast::random_sequence(rng, "bg" + std::to_string(i), 300,
                                        blast::SeqType::Protein));
  }
  blast::write_fasta_file(path("prots.fa"), db, blast::SeqType::Protein);
  blast::write_fasta_file(path("query.fa"), {ancestor}, blast::SeqType::Protein);

  ASSERT_EQ(run(tool("mrformatdb") + " --in " + path("prots.fa") + " --out " +
                path("pdb") + " --type prot --volume-residues 1000"),
            0);
  ASSERT_EQ(run(tool("mrblast_search") + " --query " + path("query.fa") + " --db " +
                path("pdb.mal") + " --type prot --out " + path("phits") +
                " --ranks 4 --block 1 --evalue 1e-8 --no-filter"),
            0);
  bool found = false;
  for (const auto& entry : fs::directory_iterator(path("phits"))) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("fam_homolog") != std::string::npos) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ToolsTest, TypeMismatchRejected) {
  Rng rng(16);
  blast::write_fasta_file(path("d.fa"), {blast::random_sequence(rng, "x", 100,
                                                                blast::SeqType::Dna)},
                          blast::SeqType::Dna);
  ASSERT_EQ(run(tool("mrformatdb") + " --in " + path("d.fa") + " --out " + path("ndb")), 0);
  // Searching a nucleotide DB with --type prot must fail cleanly.
  EXPECT_NE(run(tool("mrblast_search") + " --query " + path("d.fa") + " --db " +
                path("ndb.mal") + " --type prot --out " + path("xx")),
            0);
}

TEST_F(ToolsTest, SomTrainerOnRawMatrix) {
  // Two clusters in 8-D, written as the raw float matrix the paper's SOM
  // memory-maps.
  Rng rng(12);
  Matrix data(120, 8);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const float base = (r % 2 == 0) ? 0.0f : 4.0f;
    for (float& v : data.row(r)) v = base + static_cast<float>(rng.normal(0.0, 0.2));
  }
  write_raw_matrix(path("data.raw"), data.view());

  ASSERT_EQ(run(tool("mrsom_train") + " --matrix " + path("data.raw") +
                " --dim 8 --rows 6 --cols 6 --epochs 8 --ranks 4 --out " + path("som")),
            0);
  ASSERT_TRUE(fs::exists(path("som.cb")));
  ASSERT_TRUE(fs::exists(path("som_umatrix.pgm")));

  const som::Codebook cb = som::load_codebook(path("som.cb"));
  EXPECT_EQ(cb.grid().rows, 6u);
  EXPECT_EQ(cb.dim(), 8u);
  EXPECT_LT(som::quantization_error(cb, data.view()), 1.0);
}

TEST_F(ToolsTest, SomTrainerOnFastaTetra) {
  Rng rng(13);
  std::vector<blast::Sequence> frags;
  for (int i = 0; i < 60; ++i) {
    frags.push_back(blast::random_sequence(rng, format_msg("f", i), 800, blast::SeqType::Dna));
  }
  blast::write_fasta_file(path("frags.fa"), frags, blast::SeqType::Dna);
  ASSERT_EQ(run(tool("mrsom_train") + " --fasta " + path("frags.fa") +
                " --tetra --rows 5 --cols 5 --epochs 5 --ranks 3 --init random --out " +
                path("tsom")),
            0);
  const som::Codebook cb = som::load_codebook(path("tsom.cb"));
  EXPECT_EQ(cb.dim(), 256u);
}

TEST_F(ToolsTest, SomResumeRefusesCheckpointWithOtherBlockRecords) {
  // A checkpoint dir whose MANIFEST lacks this build's block-record token
  // (as one written before the per-BMU records would) holds map logs in
  // another format: --resume must refuse it, not misparse them.
  Rng rng(16);
  Matrix data(96, 4);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (float& v : data.row(r)) v = static_cast<float>(rng.uniform());
  }
  write_raw_matrix(path("data.raw"), data.view());
  const std::string train = tool("mrsom_train") + " --matrix " + path("data.raw") +
                            " --dim 4 --rows 4 --cols 4 --epochs 3 --block 8 --ranks 3" +
                            " --deterministic --planes 0";
  ASSERT_EQ(run(train + " --out " + path("clean")), 0) << stderr_text();
  const std::string ckpt = train + " --checkpoint-dir " + path("ckpt") +
                           " --checkpoint-interval 0 --out " + path("resumed");
  const int killed = run(ckpt + " --faults kill:t=0");
  ASSERT_TRUE(WIFEXITED(killed) && WEXITSTATUS(killed) == 3) << stderr_text();

  const fs::path manifest = fs::path(path("ckpt")) / "MANIFEST";
  const std::string current = slurp(manifest);
  const std::size_t token = current.find(" records=");
  ASSERT_NE(token, std::string::npos) << current;
  const std::size_t eol = current.find('\n', token);
  ASSERT_NE(eol, std::string::npos);
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << current.substr(0, token) << current.substr(eol);
  }
  EXPECT_NE(run(ckpt + " --resume"), 0);
  EXPECT_NE(stderr_text().find("different run configuration"), std::string::npos)
      << stderr_text();

  // The same directory with this build's MANIFEST resumes to the clean bytes.
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << current;
  }
  ASSERT_EQ(run(ckpt + " --resume"), 0) << stderr_text();
  EXPECT_EQ(slurp(path("resumed.cb")), slurp(path("clean.cb")));
}

TEST_F(ToolsTest, CodebookRoundTrip) {
  som::Codebook cb(som::SomGrid{3, 4}, 5);
  Rng rng(14);
  cb.init_random(rng);
  som::save_codebook(path("x.cb"), cb);
  const som::Codebook back = som::load_codebook(path("x.cb"));
  EXPECT_EQ(back.grid().rows, 3u);
  EXPECT_EQ(back.grid().cols, 4u);
  EXPECT_EQ(back.dim(), 5u);
  for (std::size_t i = 0; i < cb.weights().size(); ++i) {
    EXPECT_FLOAT_EQ(back.weights().data()[i], cb.weights().data()[i]);
  }
}

TEST_F(ToolsTest, CorruptCodebookRejected) {
  std::ofstream(path("junk.cb")) << "not a codebook";
  EXPECT_THROW(som::load_codebook(path("junk.cb")), InputError);
}

// ISSUE 7 satellites: --timeseries-out / --metrics-out without --report,
// and the timeseries + phase-skew sections of --report-json.
TEST_F(ToolsTest, ObservabilityOutputsOnGraphDriver) {
  // --metrics-out and --timeseries-out alone (no --report): raw registry
  // dump and a JSONL stream of sampled channels.
  ASSERT_EQ(run(tool("mrgraph_build") + " --nseq 32 --family 8 --ranks 4" +
                " --compute-cell 1e-7 --metrics-out " + path("metrics.json") +
                " --timeseries-out " + path("ts.jsonl")),
            0);
  const std::string metrics = slurp(path("metrics.json"));
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("mrmpi.map_tasks"), std::string::npos);
  const std::string ts = slurp(path("ts.jsonl"));
  EXPECT_NE(ts.find("\"channel\":\"busy_seconds\""), std::string::npos);
  EXPECT_NE(ts.find("\"channel\":\"mrmpi.tasks_done\""), std::string::npos);

  // --report-json embeds the same data plus the new skew analysis.
  ASSERT_EQ(run(tool("mrgraph_build") + " --nseq 32 --family 8 --ranks 4" +
                " --compute-cell 1e-7 --report-json " + path("report.json")),
            0);
  const std::string report = slurp(path("report.json"));
  EXPECT_NE(report.find("\"phase_skew\":"), std::string::npos);
  EXPECT_NE(report.find("\"stragglers\":"), std::string::npos);
  EXPECT_NE(report.find("\"timeseries\":"), std::string::npos);
  EXPECT_NE(report.find("\"metrics\":"), std::string::npos);
}

// ISSUE 7 acceptance: a slow: fault plan must surface the injected rank in
// the stragglers section with a compute-bound dominant attribution (the
// slow rank spends its extra time in stretched compute charges).
TEST_F(ToolsTest, SlowFaultRankNamedInStragglers) {
  ASSERT_EQ(run(tool("mrgraph_build") + " --nseq 48 --family 8 --ranks 4" +
                " --compute-cell 1e-7 --faults \"slow:rank=2,factor=8\"" +
                " --report-json " + path("report.json")),
            0);
  const std::string report = slurp(path("report.json"));
  const auto at = report.find("\"stragglers\":[{\"rank\":2,");
  ASSERT_NE(at, std::string::npos) << report;
  const std::string entry = report.substr(at, report.find(']', at) - at);
  EXPECT_NE(entry.find("\"dominant\":\"compute\""), std::string::npos) << entry;
}

// ISSUE 10 satellite: crash/kill fault plans are legal on mrgraph_build now
// that commits are sharded — a mid-map crash (even of rank 0, the
// traditional master) must still yield a byte-identical similarity graph.
TEST_F(ToolsTest, GraphMidMapCrashYieldsByteIdenticalEdges) {
  // --block 4 on 32 sequences gives 36 block-pair tasks whose start-time
  // polls span the map window, so a t=0.2 crash lands mid-map.
  const std::string base = tool("mrgraph_build") +
                           " --nseq 32 --family 8 --block 4 --ranks 4" +
                           " --scheduler steal --compute-cell 1e-7";
  ASSERT_EQ(run(base + " --out-dir " + path("edges_clean")), 0);

  ASSERT_EQ(run(base + " --out-dir " + path("edges_crash") +
                " --faults \"crash:rank=2,t=0.2\""),
            0);
  // Rank 0's crash exercises ledger-shard failover rather than plain
  // task retry; it is only accepted under the sharded steal scheduler.
  ASSERT_EQ(run(base + " --out-dir " + path("edges_master_crash") +
                " --faults \"crash:rank=0,t=0.2,mode=permanent\"" +
                " --checkpoint-dir " + path("graph_ckpt")),
            0);

  for (int r = 0; r < 4; ++r) {
    const std::string name = "edges." + std::to_string(r) + ".tsv";
    const std::string clean = slurp(path("edges_clean") + "/" + name);
    ASSERT_FALSE(clean.empty()) << name;
    EXPECT_EQ(slurp(path("edges_crash") + "/" + name), clean) << name;
    EXPECT_EQ(slurp(path("edges_master_crash") + "/" + name), clean) << name;
  }

  // Without a failover-capable scheduler the same plans are rejected
  // up front instead of failing mid-run.
  EXPECT_NE(run(tool("mrgraph_build") + " --nseq 32 --family 8 --ranks 4" +
                " --faults \"crash:rank=1,t=0.2\""),
            0);
}

// ISSUE 7 satellite: installing the structured event-log sink must leave
// the plain-text stderr stream byte-identical. The empty checkpoint dir
// with --resume deterministically emits one Warn line to compare.
TEST_F(ToolsTest, LogJsonKeepsStderrByteIdentical) {
  Rng rng(21);
  std::vector<blast::Sequence> frags;
  for (int i = 0; i < 30; ++i) {
    frags.push_back(blast::random_sequence(rng, format_msg("f", i), 600, blast::SeqType::Dna));
  }
  blast::write_fasta_file(path("frags.fa"), frags, blast::SeqType::Dna);
  const std::string train = tool("mrsom_train") + " --fasta " + path("frags.fa") +
                            " --tetra --rows 4 --cols 4 --epochs 2 --ranks 3" +
                            " --checkpoint-dir " + path("ckpt") + " --resume" +
                            " --out " + path("som");

  ASSERT_EQ(run(train), 0);  // cleanup_on_success leaves ckpt/ absent again
  const std::string plain_stderr = stderr_text();
  ASSERT_NE(plain_stderr.find("no checkpoint found"), std::string::npos);

  ASSERT_EQ(run(train + " --log-json " + path("events.jsonl")), 0);
  EXPECT_EQ(stderr_text(), plain_stderr);  // byte-identical with the sink on

  const std::string events = slurp(path("events.jsonl"));
  EXPECT_NE(events.find("\"severity\":\"warn\""), std::string::npos);
  EXPECT_NE(events.find("no checkpoint found"), std::string::npos);
}

// The shared run flags of tools/driver.hpp plus each driver's domain flags,
// with their defaults ("name=default"; switches bare): the command-line
// surface must not drift as the drivers' plumbing moves.
TEST_F(ToolsTest, DriverHelpListsTheirFlagsAndDefaults) {
  const std::vector<std::string> shared = {
      "backend=sim", "checkpoint-dir=", "checkpoint-interval=5", "faults=",
      "ft-retries=3", "ft-timeout=auto", "heartbeat=", "ledger-ranks=0",
      "log-json=", "log=", "metrics-out=", "ranks=0", "report", "report-json=",
      "resume", "scheduler=auto", "simd=auto", "timeseries-out=", "trace="};
  const std::map<std::string, std::vector<std::string>> domain = {
      {"mrblast_search",
       {"block=1000", "blocks-per-iter=0", "db=", "evalue=10", "exclude-self", "locality",
        "max-hits=500", "no-filter", "out=mrblast_out", "query=", "tapered", "trace-full",
        "type=nucl", "virtual-rate=auto"}},
      {"mrsom_train",
       {"block=40", "cols=50", "deterministic", "dim=0", "epochs=10", "fasta=", "init=pca",
        "matrix=", "out=mrsom", "planes=0", "rows=50", "seed=2011", "style=chunk", "tetra",
        "trace-full"}},
      {"mrgraph_build",
       {"block=16", "combiner", "compress", "compute-cell=0", "exchange=flat", "family=8",
        "fasta=", "memsize=0", "min-score=24", "mutate=0.05", "nseq=96", "out-dir=",
        "overlap-spill", "page-to-disk", "radix=2", "seed=42", "seqlen=200", "style=chunk",
        "word=8", "xdrop=20"}},
  };
  for (const auto& [name, own] : domain) {
    ASSERT_EQ(run(tool(name) + " --help"), 0) << name;
    std::vector<std::string> listed;
    std::istringstream in(stdout_text());
    for (std::string line, help; std::getline(in, line);) {
      if (line.rfind("  --", 0) != 0 || line == "  --help") continue;
      std::string flag = line.substr(4, line.find(' ', 4) - 4);
      if (line.find("<value>") != std::string::npos) {
        std::getline(in, help);
        const std::size_t at = help.rfind("(default: ");
        ASSERT_NE(at, std::string::npos) << help;
        flag += "=" + help.substr(at + 10, help.size() - at - 11);
      }
      listed.push_back(flag);
    }
    std::vector<std::string> want = shared;
    want.insert(want.end(), own.begin(), own.end());
    std::sort(want.begin(), want.end());
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(listed, want) << name;
  }
}

TEST_F(ToolsTest, GraphCheckpointDirIsRemovedAfterSuccess) {
  // A finished run leaves no checkpoint behind, so the same command runs
  // again without --resume.
  const std::string cmd = tool("mrgraph_build") + " --nseq 32 --family 8 --ranks 4" +
                          " --checkpoint-dir " + path("ck");
  ASSERT_EQ(run(cmd), 0) << stderr_text();
  EXPECT_NE(stdout_text().find("checkpoint: "), std::string::npos) << stdout_text();
  EXPECT_FALSE(fs::exists(path("ck")));
  EXPECT_EQ(run(cmd), 0) << stderr_text();
}

TEST_F(ToolsTest, GraphFilesystemErrorExitsOneWithErrorLine) {
  std::ofstream(path("plain_file")) << "x";
  const int rc = run(tool("mrgraph_build") + " --nseq 32 --family 8 --ranks 4 --out-dir " +
                     path("plain_file") + "/sub");
  ASSERT_TRUE(WIFEXITED(rc)) << "killed by a signal: " << rc;
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  EXPECT_NE(stderr_text().find("[ERROR] mrgraph_build: "), std::string::npos)
      << stderr_text();
}

TEST_F(ToolsTest, GraphDupPlanUnderMasterStyleRunsTheLedger) {
  // A dup needs the ft protocol: under --style master it turns the ledger
  // on (the plain master-worker loop deadlocks on a duplicated grant), and
  // under a static map it is rejected up front.
  const std::string base = tool("mrgraph_build") +
                           " --nseq 32 --family 8 --block 4 --ranks 4 --compute-cell 1e-7";
  const auto checksum = [&] {
    const std::string out = stdout_text();
    const std::size_t at = out.find("checksum ");
    return at == std::string::npos ? std::string() : out.substr(at, 25);
  };
  ASSERT_EQ(run(base + " --style master --out-dir " + path("clean")), 0) << stderr_text();
  const std::string want = checksum();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(run(base + " --style master --out-dir " + path("dup") +
                " --faults \"dup:src=-1,dst=-1,count=5\""),
            0)
      << stderr_text();
  EXPECT_EQ(checksum(), want);
  EXPECT_NE(stdout_text().find("5 duplicates"), std::string::npos) << stdout_text();
  for (int r = 0; r < 4; ++r) {
    const std::string name = "/edges." + std::to_string(r) + ".tsv";
    EXPECT_EQ(slurp(path("dup") + name), slurp(path("clean") + name)) << name;
  }
  EXPECT_NE(run(base + " --faults \"dup:src=-1,dst=-1,count=5\""), 0);
}

TEST_F(ToolsTest, SomFailedOutputKeepsCheckpointForResume) {
  // The checkpoint outlives a run whose own outputs fail to write, so
  // --resume restores the trained codebook instead of training afresh.
  Rng rng(17);
  Matrix data(60, 4);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (float& v : data.row(r)) v = static_cast<float>(rng.uniform());
  }
  write_raw_matrix(path("data.raw"), data.view());
  const std::string train = tool("mrsom_train") + " --matrix " + path("data.raw") +
                            " --dim 4 --rows 3 --cols 3 --epochs 2 --block 10 --ranks 3";
  ASSERT_EQ(run(train + " --out " + path("clean")), 0) << stderr_text();
  const std::string ckpt = train + " --checkpoint-dir " + path("ck") + " --out " +
                           path("nodir") + "/som";
  const int failed = run(ckpt);
  ASSERT_TRUE(WIFEXITED(failed) && WEXITSTATUS(failed) == 1) << stderr_text();
  EXPECT_TRUE(fs::exists(path("ck")));

  fs::create_directories(path("nodir"));
  ASSERT_EQ(run(ckpt + " --resume"), 0) << stderr_text();
  EXPECT_EQ(stderr_text().find("no checkpoint found"), std::string::npos) << stderr_text();
  EXPECT_EQ(slurp(path("nodir") + "/som.cb"), slurp(path("clean.cb")));
  EXPECT_FALSE(fs::exists(path("ck")));
}

TEST_F(ToolsTest, BlastDelayPlanRunsOnAnySchedulerWithFaultFreeHits) {
  // A delay only shapes the timeline: it needs no ft protocol, so static
  // maps accept it and every scheduler writes the fault-free hits.
  Rng rng(29);
  std::vector<blast::Sequence> genomes;
  for (int g = 0; g < 2; ++g) {
    genomes.push_back(
        blast::random_sequence(rng, "genome" + std::to_string(g), 900, blast::SeqType::Dna));
  }
  blast::write_fasta_file(path("genomes.fa"), genomes, blast::SeqType::Dna);
  ASSERT_EQ(run(tool("shred_fasta") + " --in " + path("genomes.fa") + " --out " +
                path("reads.fa") + " --length 200 --overlap 100"),
            0);
  ASSERT_EQ(run(tool("mrformatdb") + " --in " + path("genomes.fa") + " --out " +
                path("db") + " --volume-residues 1000"),
            0);
  const std::string search = tool("mrblast_search") + " --query " + path("reads.fa") +
                             " --db " + path("db.mal") + " --ranks 3 --block 4 --evalue 1e-6";
  const auto hits_of = [&](const std::string& out) {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(path(out))) {
      files[entry.path().filename().string()] = slurp(entry.path());
    }
    return files;
  };
  ASSERT_EQ(run(search + " --out " + path("clean")), 0) << stderr_text();
  const auto want = hits_of("clean");
  ASSERT_FALSE(want.empty());
  for (const char* sched : {"chunk", "stride", "auto"}) {
    const std::string out = std::string("delay_") + sched;
    ASSERT_EQ(run(search + " --out " + path(out) + " --scheduler " + sched +
                  " --faults \"delay:src=-1,dst=-1,by=0.05,count=3\""),
              0)
        << sched << ": " << stderr_text();
    EXPECT_EQ(hits_of(out), want) << sched;
  }
}

// ISSUE 7 acceptance: the bench matrix round-trips through compare against
// itself, and a perturbed metric beyond tolerance makes compare fail.
TEST_F(ToolsTest, BenchRoundTripAndPerturbedCompareFails) {
  ASSERT_EQ(run(tool("mrbio_bench") + " run --suite smoke --out " + path("bench.json")),
            0);
  ASSERT_EQ(run(tool("mrbio_bench") + " compare --baseline " + path("bench.json") +
                " --candidate " + path("bench.json")),
            0);
  EXPECT_NE(stdout_text().find("all metrics within tolerance"), std::string::npos);

  // Push the first makespan far outside its 5% tolerance.
  std::string perturbed = slurp(path("bench.json"));
  const auto key = perturbed.find("\"makespan\":");
  ASSERT_NE(key, std::string::npos);
  const auto value_at = key + std::string("\"makespan\":").size();
  perturbed.replace(value_at, perturbed.find(',', value_at) - value_at, "1e9");
  std::ofstream(path("perturbed.json")) << perturbed;
  EXPECT_NE(run(tool("mrbio_bench") + " compare --baseline " + path("bench.json") +
                " --candidate " + path("perturbed.json")),
            0);
  EXPECT_NE(stdout_text().find("REGRESSION"), std::string::npos);
}

}  // namespace
}  // namespace mrbio
