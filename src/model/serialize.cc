#include "model/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace xai {
namespace {

constexpr char kMagic[] = "xaidb_model v1";

Status OpenForWrite(const std::string& path, std::ofstream* out) {
  out->open(path);
  if (!*out) return Status::IOError("cannot open for write: " + path);
  *out << std::setprecision(17);
  *out << kMagic << "\n";
  return Status::OK();
}

/// Opens `path` and reads the header every artifact starts with: the magic
/// line, then `type <kind>`. Returns the kind and leaves `in` positioned at
/// the kind's body.
Result<std::string> OpenArtifact(const std::string& path, std::ifstream* in) {
  in->open(path);
  if (!*in) return Status::IOError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(*in, line) || line != kMagic)
    return Status::InvalidArgument("bad magic in " + path);
  std::string kw;
  std::string type;
  *in >> kw >> type;
  if (kw != "type" || type.empty())
    return Status::InvalidArgument("missing type in " + path);
  return type;
}

void WriteTree(std::ofstream& out, const Tree& tree) {
  out << "tree " << tree.nodes.size() << "\n";
  for (const TreeNode& n : tree.nodes) {
    out << n.feature << " " << n.threshold << " " << n.left << " "
        << n.right << " " << n.value << " " << n.cover << "\n";
  }
}

/// The most whitespace-separated numbers the rest of `in` can hold: each
/// takes at least one character and one separator, so n of them need at
/// least 2n - 1 bytes. Readers check every header count against it before
/// the count sizes an allocation, so a short artifact claiming a huge body
/// is rejected instead of allocating for it.
size_t MaxNumbersLeft(std::istream& in) {
  const std::streampos pos = in.tellg();
  if (pos < 0) return 0;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(pos);
  if (end < pos) return 0;
  return (static_cast<size_t>(end - pos) + 1) / 2;
}

/// Reads one tree block and checks that its node links form a tree before
/// anything walks it: a corrupt link would otherwise send MaxDepth, the
/// flat compile and every walker out of bounds or around a cycle. Both
/// learners number nodes depth-first, so a child always follows its
/// parent; requiring every child index to lie in (parent, n_nodes) and
/// every node to have at most one parent rules out cycles and shared
/// subtrees (whose walks grow exponentially).
Result<Tree> ReadTree(std::istream& in, size_t num_features) {
  std::string kw;
  size_t n_nodes = 0;
  in >> kw >> n_nodes;
  if (kw != "tree" || !in)
    return Status::InvalidArgument("malformed tree header");
  if (n_nodes == 0 || n_nodes > 10'000'000)
    return Status::InvalidArgument("implausible tree size");
  // Grow with the nodes actually read, so a corrupt count cannot allocate
  // hundreds of MiB before the body runs out.
  Tree tree;
  tree.nodes.reserve(std::min<size_t>(n_nodes, 4096));
  for (size_t k = 0; k < n_nodes; ++k) {
    TreeNode node;
    in >> node.feature >> node.threshold >> node.left >> node.right >>
        node.value >> node.cover;
    if (!in) return Status::InvalidArgument("malformed tree node");
    tree.nodes.push_back(node);
  }
  auto bad_node = [](size_t k, const char* what) {
    return Status::InvalidArgument("tree node " + std::to_string(k) + ": " +
                                   what);
  };
  std::vector<bool> has_parent(n_nodes, false);
  for (size_t k = 0; k < n_nodes; ++k) {
    const TreeNode& node = tree.nodes[k];
    if (node.is_leaf()) {
      if (node.feature != -1) return bad_node(k, "leaf feature must be -1");
      continue;
    }
    if (static_cast<size_t>(node.feature) >= num_features)
      return bad_node(k, "split feature out of range");
    for (const int child : {node.left, node.right}) {
      if (child <= static_cast<int64_t>(k) ||
          static_cast<size_t>(child) >= n_nodes)
        return bad_node(k, "child index out of range");
      if (has_parent[static_cast<size_t>(child)])
        return bad_node(k, "child already has a parent");
      has_parent[static_cast<size_t>(child)] = true;
    }
  }
  return tree;
}

/// Reads `num_trees` tree blocks.
Result<std::vector<Tree>> ReadTrees(std::istream& in, size_t num_trees,
                                    size_t num_features) {
  if (num_trees > MaxNumbersLeft(in))
    return Status::InvalidArgument("tree count exceeds the artifact");
  std::vector<Tree> trees;
  trees.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    XAI_ASSIGN_OR_RETURN(Tree tree, ReadTree(in, num_features));
    trees.push_back(std::move(tree));
  }
  return trees;
}

// Per-kind writers. The public entry point is the polymorphic
// SaveModel(const Model&) below; these carry the wire format.

Status SaveLinear(const LinearRegression& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type linear\n";
  out << "lambda " << model.lambda() << "\n";
  out << "intercept " << model.intercept() << "\n";
  out << "weights " << model.weights().size();
  for (double w : model.weights()) out << " " << w;
  out << "\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveLogistic(const LogisticRegression& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type logistic\n";
  out << "lambda " << model.lambda() << "\n";
  out << "theta " << model.theta().size();
  for (double t : model.theta()) out << " " << t;
  out << "\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveGbdt(const GradientBoostedTrees& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type gbdt\n";
  out << "loss "
      << (model.loss() == GbdtLoss::kLogistic ? "logistic" : "squared")
      << "\n";
  out << "base_score " << model.base_score() << "\n";
  out << "learning_rate " << model.learning_rate() << "\n";
  out << "num_features " << model.num_features() << "\n";
  out << "num_trees " << model.trees().size() << "\n";
  for (const Tree& t : model.trees()) WriteTree(out, t);
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveDtree(const DecisionTree& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type dtree\n";
  out << "num_features " << model.num_features() << "\n";
  WriteTree(out, model.tree());
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveForest(const RandomForest& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type forest\n";
  out << "num_features " << model.num_features() << "\n";
  out << "num_trees " << model.trees().size() << "\n";
  for (const Tree& t : model.trees()) WriteTree(out, t);
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

// kNN's parameters are the training set itself, schema included so the
// loaded Dataset is whole (KNN-Shapley valuation reads it). Feature names
// and category labels are written as whitespace-delimited tokens — names
// with embedded whitespace have no artifact form.
Status SaveKnn(const KnnClassifier& model, const std::string& path) {
  const Dataset& train = model.train();
  for (const FeatureSpec& spec : train.schema().features()) {
    if (spec.name.find_first_of(" \t\n") != std::string::npos)
      return Status::InvalidArgument(
          "knn artifact: feature name contains whitespace: " + spec.name);
    for (const std::string& cat : spec.categories)
      if (cat.find_first_of(" \t\n") != std::string::npos)
        return Status::InvalidArgument(
            "knn artifact: category contains whitespace: " + cat);
  }
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type knn\n";
  out << "k " << model.k() << "\n";
  out << "num_rows " << train.n() << "\n";
  out << "num_features " << train.d() << "\n";
  out << "schema " << train.schema().num_features() << "\n";
  for (const FeatureSpec& spec : train.schema().features()) {
    if (spec.is_numeric()) {
      out << "num " << spec.name << "\n";
    } else {
      out << "cat " << spec.name << " " << spec.categories.size();
      for (const std::string& cat : spec.categories) out << " " << cat;
      out << "\n";
    }
  }
  out << "labels";
  for (double y : train.y()) out << " " << y;
  out << "\n";
  for (size_t i = 0; i < train.n(); ++i) {
    const double* r = train.x().RowPtr(i);
    for (size_t j = 0; j < train.d(); ++j)
      out << (j == 0 ? "" : " ") << r[j];
    out << "\n";
  }
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveNaiveBayes(const MultinomialNaiveBayes& model,
                      const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type nbayes\n";
  out << "prior_log_odds " << model.prior_log_odds() << "\n";
  out << "llr " << model.log_likelihood_ratios().size();
  for (double v : model.log_likelihood_ratios()) out << " " << v;
  out << "\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

}  // namespace

Status SaveModel(const Model& model, const std::string& path) {
  if (const auto* m = dynamic_cast<const GradientBoostedTrees*>(&model))
    return SaveGbdt(*m, path);
  if (const auto* m = dynamic_cast<const DecisionTree*>(&model))
    return SaveDtree(*m, path);
  if (const auto* m = dynamic_cast<const RandomForest*>(&model))
    return SaveForest(*m, path);
  if (const auto* m = dynamic_cast<const LinearRegression*>(&model))
    return SaveLinear(*m, path);
  if (const auto* m = dynamic_cast<const LogisticRegression*>(&model))
    return SaveLogistic(*m, path);
  if (const auto* m = dynamic_cast<const KnnClassifier*>(&model))
    return SaveKnn(*m, path);
  if (const auto* m = dynamic_cast<const MultinomialNaiveBayes*>(&model))
    return SaveNaiveBayes(*m, path);
  return Status::InvalidArgument(
      "model has no artifact form (not a built-in fitted model)");
}

Result<std::string> ModelKindOf(const Model& model) {
  if (dynamic_cast<const GradientBoostedTrees*>(&model)) return {"gbdt"};
  if (dynamic_cast<const DecisionTree*>(&model)) return {"dtree"};
  if (dynamic_cast<const RandomForest*>(&model)) return {"forest"};
  if (dynamic_cast<const LinearRegression*>(&model)) return {"linear"};
  if (dynamic_cast<const LogisticRegression*>(&model)) return {"logistic"};
  if (dynamic_cast<const KnnClassifier*>(&model)) return {"knn"};
  if (dynamic_cast<const MultinomialNaiveBayes*>(&model)) return {"nbayes"};
  return Status::InvalidArgument(
      "model has no artifact form (not a built-in fitted model)");
}

namespace {

// Per-kind readers: each parses one kind's body from a stream LoadAnyModel
// has already opened and positioned past the header.

template <typename M>
Result<std::unique_ptr<Model>> Boxed(M model) {
  return std::unique_ptr<Model>(new M(std::move(model)));
}

Result<std::unique_ptr<Model>> ReadLinear(std::istream& in) {
  std::string kw;
  double lambda = 0.0;
  double intercept = 0.0;
  size_t n = 0;
  in >> kw >> lambda >> kw >> intercept >> kw >> n;
  if (!in || n > 10'000'000 || n > MaxNumbersLeft(in))
    return Status::InvalidArgument("malformed linear model");
  std::vector<double> weights(n);
  for (double& w : weights) in >> w;
  if (!in) return Status::InvalidArgument("malformed weights");
  return Boxed(LinearRegression::FromParameters(std::move(weights), intercept,
                                                lambda));
}

Result<std::unique_ptr<Model>> ReadLogistic(std::istream& in) {
  std::string kw;
  double lambda = 0.0;
  size_t n = 0;
  in >> kw >> lambda >> kw >> n;
  if (!in || n == 0 || n > 10'000'000 || n > MaxNumbersLeft(in))
    return Status::InvalidArgument("malformed logistic model");
  std::vector<double> theta(n);
  for (double& t : theta) in >> t;
  if (!in) return Status::InvalidArgument("malformed theta");
  return Boxed(LogisticRegression::FromParameters(std::move(theta), lambda));
}

Result<std::unique_ptr<Model>> ReadGbdt(std::istream& in) {
  std::string kw;
  std::string loss_name;
  double base = 0.0;
  double lr = 0.0;
  size_t num_features = 0;
  size_t num_trees = 0;
  in >> kw >> loss_name >> kw >> base >> kw >> lr >> kw >> num_features >>
      kw >> num_trees;
  if (!in || num_trees > 1'000'000)
    return Status::InvalidArgument("malformed gbdt header");
  GbdtLoss loss = GbdtLoss::kLogistic;
  if (loss_name == "squared") {
    loss = GbdtLoss::kSquared;
  } else if (loss_name != "logistic") {
    return Status::InvalidArgument("unknown gbdt loss '" + loss_name + "'");
  }
  XAI_ASSIGN_OR_RETURN(std::vector<Tree> trees,
                       ReadTrees(in, num_trees, num_features));
  return Boxed(GradientBoostedTrees::FromParts(std::move(trees), base, lr,
                                               loss, num_features));
}

Result<std::unique_ptr<Model>> ReadDtree(std::istream& in) {
  std::string kw;
  size_t num_features = 0;
  in >> kw >> num_features;
  if (!in || kw != "num_features")
    return Status::InvalidArgument("malformed dtree header");
  XAI_ASSIGN_OR_RETURN(Tree tree, ReadTree(in, num_features));
  return Boxed(DecisionTree::FromParts(std::move(tree), num_features));
}

Result<std::unique_ptr<Model>> ReadForest(std::istream& in) {
  std::string kw;
  size_t num_features = 0;
  size_t num_trees = 0;
  in >> kw >> num_features >> kw >> num_trees;
  if (!in || num_trees == 0 || num_trees > 1'000'000)
    return Status::InvalidArgument("malformed forest header");
  XAI_ASSIGN_OR_RETURN(std::vector<Tree> trees,
                       ReadTrees(in, num_trees, num_features));
  return Boxed(RandomForest::FromParts(std::move(trees), num_features));
}

Result<std::unique_ptr<Model>> ReadKnn(std::istream& in) {
  std::string kw;
  int k = 0;
  size_t n = 0;
  size_t d = 0;
  size_t n_specs = 0;
  in >> kw >> k >> kw >> n >> kw >> d >> kw >> n_specs;
  if (!in || k <= 0 || n == 0 || n > 10'000'000 || d > 1'000'000 ||
      n_specs > 1'000'000 || n_specs > MaxNumbersLeft(in))
    return Status::InvalidArgument("malformed knn header");
  // The body holds n labels and n * d features: n * (d + 1) numbers.
  if (n > MaxNumbersLeft(in) / (d + 1))
    return Status::InvalidArgument("knn row count exceeds the artifact");
  std::vector<FeatureSpec> specs;
  specs.reserve(n_specs);
  for (size_t j = 0; j < n_specs; ++j) {
    std::string tag;
    std::string name;
    in >> tag >> name;
    if (!in) return Status::InvalidArgument("malformed knn schema");
    if (tag == "num") {
      specs.push_back(FeatureSpec::Numeric(std::move(name)));
    } else if (tag == "cat") {
      size_t n_cats = 0;
      in >> n_cats;
      if (!in || n_cats > 1'000'000 || n_cats > MaxNumbersLeft(in))
        return Status::InvalidArgument("malformed knn schema");
      std::vector<std::string> cats(n_cats);
      for (std::string& cat : cats) in >> cat;
      if (!in) return Status::InvalidArgument("malformed knn schema");
      specs.push_back(FeatureSpec::Categorical(std::move(name),
                                               std::move(cats)));
    } else {
      return Status::InvalidArgument("malformed knn schema tag: " + tag);
    }
  }
  in >> kw;
  if (!in || kw != "labels")
    return Status::InvalidArgument("malformed knn labels");
  std::vector<double> y(n);
  for (double& v : y) in >> v;
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) in >> x(i, j);
  if (!in) return Status::InvalidArgument("malformed knn rows");
  return Boxed(KnnClassifier::FromParts(
      Dataset(Schema(std::move(specs)), std::move(x), std::move(y)), k));
}

Result<std::unique_ptr<Model>> ReadNaiveBayes(std::istream& in) {
  std::string kw;
  double prior = 0.0;
  size_t n = 0;
  in >> kw >> prior >> kw >> n;
  if (!in || n == 0 || n > 10'000'000 || n > MaxNumbersLeft(in))
    return Status::InvalidArgument("malformed nbayes model");
  std::vector<double> llr(n);
  for (double& v : llr) in >> v;
  if (!in) return Status::InvalidArgument("malformed llr");
  return Boxed(MultinomialNaiveBayes::FromParts(std::move(llr), prior));
}

}  // namespace

Result<std::unique_ptr<Model>> LoadAnyModel(const std::string& path) {
  std::ifstream in;
  XAI_ASSIGN_OR_RETURN(std::string type, OpenArtifact(path, &in));
  if (type == "linear") return ReadLinear(in);
  if (type == "logistic") return ReadLogistic(in);
  if (type == "gbdt") return ReadGbdt(in);
  if (type == "dtree") return ReadDtree(in);
  if (type == "forest") return ReadForest(in);
  if (type == "knn") return ReadKnn(in);
  if (type == "nbayes") return ReadNaiveBayes(in);
  return Status::InvalidArgument("unknown model type '" + type + "' in " +
                                 path);
}

Result<std::string> PeekModelType(const std::string& path) {
  std::ifstream in;
  return OpenArtifact(path, &in);
}

}  // namespace xai
