package perfbench

import scala.util.hashing.MurmurHash3
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.benchmark.{BenchConfig, Benchmark, BenchmarkBuilder}
import repro.core._
import repro.kge.{KgeData, KgeDataset}
import repro.synth.World

/** Order-independent and ordered content hashes for output checks. */
object Fingerprint {
  /** Sum of per-row xxhash64 values: independent of row order and partitioning. */
  def rows(df: DataFrame): String = {
    val v = df.select(sum(xxhash64(df.columns.map(col).toIndexedSeq: _*).cast("decimal(38,0)")))
      .head().getDecimal(0)
    if (v == null) "0" else v.toString
  }

  def ordered(xs: Array[Int]*): Int = MurmurHash3.orderedHash(xs.map(a => MurmurHash3.arrayHash(a)))

  /** Content of a collected dataset, with its train order. */
  def dataset(d: KgeDataset): Map[String, Any] = Map(
    "entities" -> d.nEnt, "relations" -> d.nRel,
    "train" -> d.nTrain, "dev" -> d.devH.length, "test" -> d.testH.length,
    "entity_ids" -> MurmurHash3.arrayHash(d.entIds),
    "train_order" -> ordered(d.trainH, d.trainR, d.trainT),
    "dev_hash" -> ordered(d.devH, d.devR, d.devT),
    "test_hash" -> ordered(d.testH, d.testR, d.testT))

  /** Reference-free split checks: no held-out triple in train, every
    * held-out tail covered by train, train and test non-empty.
    */
  def splitInvariants(k: String, d: KgeDataset): Map[String, Boolean] = {
    def key(h: Int, r: Int, t: Int): Long = (h.toLong * d.nRel + r) * d.nEnt + t
    val train = d.trainH.indices.map(i => key(d.trainH(i), d.trainR(i), d.trainT(i))).toSet
    val covered = (d.trainH ++ d.trainT).toSet
    val held = d.devH.indices.map(i => (d.devH(i), d.devR(i), d.devT(i))) ++
      d.testH.indices.map(i => (d.testH(i), d.testR(i), d.testT(i)))
    Map(s"$k.no_leak" -> held.forall { case (h, r, t) => !train.contains(key(h, r, t)) },
      s"$k.tails_covered" -> held.forall { case (_, _, t) => covered.contains(t) },
      s"$k.nonempty" -> (d.nTrain > 0 && d.testH.nonEmpty))
  }
}

/** Raw sources → KG → three benchmarks → three datasets: the Spark layers
  * (synth, core, benchmark, kge.data). 7 ops a pass.
  */
final class Construct(spark: SparkSession, scale: Scale, tr: Tracer) extends Workload {
  private var world: World = _
  // Traced-pass outputs kept for the counters computed after the pass.
  private var linked: Option[(DataFrame, DataFrame, DataFrame, DataFrame, DataFrame)] = None
  private var mentionRows, keptRows = 0L
  private var kgNodes, kgTriples = 0L
  private var benchTriples = Map.empty[String, Long]

  def setupStep(): Unit = world = new World(scale.synth)

  /** KgBuilder.build's stages, called in its order with each output forced
    * once, so each layer's time is its own; then `build` itself.
    */
  private def tracedKg(): Kg = {
    val src = tr.span("synth") {
      val s = RawSources.fromWorld(spark, world)
      val c = RawSources(s.categoryTaxonomy.cache(), s.rawProducts.cache(), s.placesA.cache(),
        s.placesB.cache(), s.brandRegistry.cache(), s.corpus.cache(), s.conceptLexicon.cache())
      Seq(c.categoryTaxonomy, c.rawProducts, c.placesA, c.placesB, c.brandRegistry, c.corpus,
        c.conceptLexicon).foreach(_.count())
      c
    }
    def forced(name: String)(df: => DataFrame): DataFrame =
      tr.span(name) { val d = df.cache(); d.count(); d }

    val places = forced("core.schema_mapping.places")(
      SchemaMapping.unifyPlaces(spark, src.placesA, src.placesB))
    val brands = forced("core.schema_mapping.brands")(SchemaMapping.unifyBrands(spark, src.brandRegistry))
    val brandLinks = forced("core.label_matcher.brands")(
      LabelMatcher.linkBrands(spark, src.rawProducts, brands))
    val placeLinks = forced("core.label_matcher.places")(
      LabelMatcher.linkPlaces(spark, src.rawProducts, places))
    val leafLexicon = src.conceptLexicon.filter(col("level") === 2)
    val mentions = forced("core.concept_extractor.extract")(
      ConceptExtractor.extract(spark, src.corpus, leafLexicon))
    forced("core.concept_extractor.markets")(
      ConceptExtractor.linkMarkets(spark, src.rawProducts, leafLexicon))
    val productTypes = src.rawProducts.select(col("pid") as "productId", col("leafId"))
    val facets = forced("core.quality_control.facets")(QualityControl.facets(
      spark, mentions, productTypes, KgBuilder.leafAncestors(src.categoryTaxonomy)))
    val kept = forced("core.quality_control.filter")(
      QualityControl.filterLinks(mentions, productTypes, facets))
    linked = Some((src.rawProducts, brands, brandLinks, places, placeLinks))
    mentionRows = mentions.count(); keptRows = kept.count()
    tr.span("core.kg_builder.build")(KgBuilder.build(spark, src))
  }

  /** The three extraction stages of BenchmarkBuilder.build, each forced. */
  private def tracedStages(k: String, kg: Kg, cfg: BenchConfig): Unit = tr.span(s"benchmark.stages.$k") {
    val base0 = BenchmarkBuilder.benchmarkableTriples(kg)
    val base = if (cfg.requireImage) base0.join(kg.images.select(col("pid") as "h"), Seq("h"), "left_semi")
               else base0
    val rels = tr.span(s"benchmark.refine.$k")(BenchmarkBuilder.refineRelations(base, cfg.nRelations).localCheckpoint())
    val heads = tr.span(s"benchmark.filter_heads.$k")(BenchmarkBuilder.filterHeadEntities(base, rels, cfg).localCheckpoint())
    val triples = tr.span(s"benchmark.sample.$k")(BenchmarkBuilder.sampleTriples(base, rels, heads, cfg).localCheckpoint())
    tr.span(s"benchmark.split.$k") {
      val (a, b, c) = BenchmarkBuilder.split(spark, triples, cfg)
      a.localCheckpoint(); b.localCheckpoint(); c.localCheckpoint()
    }
  }

  def pass(ops: Ops): () => (Map[String, Map[String, Any]], Map[String, Boolean]) = {
    val kg = ops("kg") {
      if (tr.enabled) tracedKg() else KgBuilder.build(spark, RawSources.fromWorld(spark, world))
    }
    val benches: Seq[(String, Option[Benchmark])] = scale.benches.map { case (k, cfg) =>
      k -> ops.after(s"bench.$k", kg) { g =>
        if (tr.enabled) tracedStages(k, g, cfg)
        tr.span(s"benchmark.build.$k")(BenchmarkBuilder.build(spark, g, cfg).cache())
      }
    }
    val data: Seq[(String, Option[KgeDataset])] = benches.map { case (k, b) =>
      k -> ops.after(s"data.$k", kg.zip(b)) { case (g, bb) =>
        tr.span(s"kge.data.$k")(KgeData.fromBenchmark(spark, g, bb))
      }
    }

    () => {
      val kgFp = kg.map { g =>
        kgNodes = g.nodes.count(); kgTriples = g.triples.count()
        "kg" -> Map[String, Any]("nodes" -> kgNodes, "triples" -> kgTriples,
          "nodes_hash" -> Fingerprint.rows(g.nodes), "triples_hash" -> Fingerprint.rows(g.triples),
          "facets_hash" -> Fingerprint.rows(g.facets))
      }
      val benchFp = benches.collect { case (k, Some(b)) =>
        s"bench.$k" -> Map[String, Any]("train" -> b.train.count(), "dev" -> b.dev.count(),
          "test" -> b.test.count(), "train_hash" -> Fingerprint.rows(b.train),
          "dev_hash" -> Fingerprint.rows(b.dev), "test_hash" -> Fingerprint.rows(b.test))
      }
      val dataFp = data.collect { case (k, Some(d)) => s"data.$k" -> Fingerprint.dataset(d) }
      benchTriples = data.collect { case (k, Some(d)) => k -> (d.nTrain + d.devH.length + d.testH.length).toLong }.toMap
      val inv = data.collect { case (k, Some(d)) => Fingerprint.splitInvariants(s"data.$k", d) }
        .foldLeft(Map("kg.nonempty" -> (kgTriples > 0)))(_ ++ _)
      ((kgFp.toSeq ++ benchFp ++ dataFp).toMap, inv)
    }
  }

  /** Link counts by method, and the share of links whose catalog label is
    * the label of the generator's ground-truth entity.
    */
  private def linkCounters(kind: String, raw: DataFrame, links: DataFrame, catalog: DataFrame,
                           idCol: String, gtCol: String, gtLabel: String => String): Map[String, Double] = {
    val rows = links.join(catalog.select(col("id") as idCol, col("label")), Seq(idCol))
      .join(raw.select(col("pid"), col(gtCol)), Seq("pid"))
      .select(col("method"), col("label"), col(gtCol)).collect()
    val byMethod = rows.groupBy(_.getString(0)).map { case (m, rs) => m -> rs.length.toDouble }
    val correct = rows.count(r => r.getString(1) == gtLabel(r.getString(2)))
    val p = s"core.label_matcher.$kind"
    Map(s"${p}_exact" -> byMethod.getOrElse("exact", 0.0), s"${p}_fuzzy" -> byMethod.getOrElse("fuzzy", 0.0),
      s"${p}_missed" -> (raw.count() - rows.length).toDouble,
      s"${p}_precision" -> (if (rows.isEmpty) 0.0 else correct.toDouble / rows.length))
  }

  def layers(): Map[String, Double] = {
    def secs(module: String, parts: (String, String)*): Map[String, Double] =
      parts.map { case (metric, span) => s"$module.$metric" -> tr.seconds(span) }.toMap
    def spark(module: String, spans: String*): Map[String, Double] =
      Map(s"$module.spark_job_s" -> spans.map(tr.sparkJobSeconds).sum,
        s"$module.shuffle_mb" -> spans.map(tr.shuffleMb).sum)
    val ks = scale.benches.map(_._1)
    val counters = linked.map { case (raw, brands, brandLinks, places, placeLinks) =>
      linkCounters("brand", raw, brandLinks, brands, "brandId", "gtBrand", world.brandById(_).label) ++
        linkCounters("place", raw, placeLinks, places, "placeId", "gtPlace",
          id => world.placeById.get(id).map(_.label).orNull)
    }.getOrElse(Map.empty)
    val kgSeconds = tr.seconds("synth") + tr.seconds("core.kg_builder.build")
    val benchSeconds = tr.seconds("benchmark.build.") + tr.seconds("kge.data.")
    Map("synth.s" -> tr.seconds("synth")) ++ spark("synth", "synth") ++
      secs("core.schema_mapping", "places_s" -> "core.schema_mapping.places",
        "brands_s" -> "core.schema_mapping.brands") ++ spark("core.schema_mapping", "core.schema_mapping.") ++
      secs("core.label_matcher", "brands_s" -> "core.label_matcher.brands",
        "places_s" -> "core.label_matcher.places") ++ spark("core.label_matcher", "core.label_matcher.") ++
      counters ++
      secs("core.concept_extractor", "extract_s" -> "core.concept_extractor.extract",
        "markets_s" -> "core.concept_extractor.markets") ++ spark("core.concept_extractor", "core.concept_extractor.") ++
      Map("core.concept_extractor.mentions" -> mentionRows.toDouble) ++
      secs("core.quality_control", "facets_s" -> "core.quality_control.facets",
        "filter_s" -> "core.quality_control.filter") ++ spark("core.quality_control", "core.quality_control.") ++
      Map("core.quality_control.kept_frac" -> (if (mentionRows == 0) 0.0 else keptRows.toDouble / mentionRows)) ++
      secs("core.kg_builder", "build_s" -> "core.kg_builder.build") ++ spark("core.kg_builder", "core.kg_builder.build") ++
      Map("core.kg_builder.nodes" -> kgNodes.toDouble, "core.kg_builder.triples" -> kgTriples.toDouble) ++
      secs("benchmark", "refine_s" -> "benchmark.refine.", "filter_heads_s" -> "benchmark.filter_heads.",
        "sample_s" -> "benchmark.sample.", "split_s" -> "benchmark.split.") ++
      spark("benchmark", "benchmark.stages.", "benchmark.build.") ++
      secs("benchmark", ks.map(k => s"${k}_s" -> s"benchmark.build.$k"): _*) ++
      ks.map(k => s"benchmark.$k.triples" -> benchTriples.getOrElse(k, 0L).toDouble) ++
      secs("kge.data", ks.map(k => s"${k}_s" -> s"kge.data.$k"): _*) ++ spark("kge.data", "kge.data.") ++
      Map("kg_triples_per_s" -> (if (kgSeconds > 0) kgTriples / kgSeconds else 0.0),
        "bench_triples_per_s" -> (if (benchSeconds > 0) benchTriples.values.sum / benchSeconds else 0.0))
  }
}
